#include "runtime/codec.h"

#include "runtime/lineage.h"

namespace fractal {

void SubgraphCodec::EncodeSubgraph(const Subgraph& subgraph,
                                   ByteWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(subgraph.vertices_.size()));
  for (const VertexId v : subgraph.vertices_) writer->PutU32(v);
  writer->PutU32(static_cast<uint32_t>(subgraph.edges_.size()));
  for (const EdgeId e : subgraph.edges_) writer->PutU32(e);
  writer->PutU32(static_cast<uint32_t>(subgraph.records_.size()));
  for (const Subgraph::PushRecord& record : subgraph.records_) {
    writer->PutU8(static_cast<uint8_t>(record.vertices_added()));
    writer->PutU8(static_cast<uint8_t>(record.edges_added()));
  }
}

namespace {

/// Reads an element count and checks that the payload still holds that many
/// `element_bytes`-sized elements, so a corrupt or hostile count is
/// rejected before anything is sized by it.
bool ReadCount(ByteReader* reader, size_t element_bytes, uint32_t* count) {
  *count = reader->GetU32();
  return reader->ok() && *count <= 1u << 20 &&
         uint64_t{*count} * element_bytes <= reader->remaining();
}

}  // namespace

bool SubgraphCodec::DecodeWords(ByteReader* reader, Subgraph* subgraph) {
  subgraph->Clear();
  uint32_t num_vertices = 0;
  if (!ReadCount(reader, sizeof(uint32_t), &num_vertices)) return false;
  subgraph->vertices_.resize(num_vertices);
  for (uint32_t i = 0; i < num_vertices; ++i) {
    subgraph->vertices_[i] = reader->GetU32();
  }
  uint32_t num_edges = 0;
  if (!ReadCount(reader, sizeof(uint32_t), &num_edges)) return false;
  subgraph->edges_.resize(num_edges);
  for (uint32_t i = 0; i < num_edges; ++i) {
    subgraph->edges_[i] = reader->GetU32();
  }
  uint32_t num_records = 0;
  // Two bytes per record: vertices_added, edges_added.
  if (!ReadCount(reader, 2, &num_records)) return false;
  subgraph->records_.resize(num_records);
  uint32_t vertex_total = 0;
  uint32_t edge_total = 0;
  for (uint32_t i = 0; i < num_records; ++i) {
    const uint32_t vertices_added = reader->GetU8();
    const uint32_t edges_added = reader->GetU8();
    subgraph->records_[i] =
        Subgraph::PushRecord::Make(vertices_added, edges_added);
    vertex_total += vertices_added;
    edge_total += edges_added;
  }
  // Structural consistency: records must account for every word element.
  return reader->ok() && vertex_total == num_vertices &&
         edge_total == num_edges;
}

void SubgraphCodec::FinishDecode(Subgraph* subgraph) {
  // The words were written behind the bitsets' back; restore the invariant.
  subgraph->RebuildBits();
  subgraph->MarkQuickCodeStale();
}

bool SubgraphCodec::DecodeSubgraph(ByteReader* reader, Subgraph* subgraph) {
  if (!DecodeWords(reader, subgraph)) return false;
  FinishDecode(subgraph);
  return true;
}

std::vector<uint8_t> SubgraphCodec::EncodeStolenWork(
    const SubgraphEnumerator::StolenWork& work) {
  ByteWriter writer;
  EncodeSubgraph(work.prefix, &writer);
  writer.PutU32(work.extension);
  writer.PutU32(work.primitive_index);
  writer.PutU32(static_cast<uint32_t>(work.lineage_id));
  writer.PutU32(static_cast<uint32_t>(work.lineage_id >> 32));
  return std::move(writer).Take();
}

bool SubgraphCodec::DecodeStolenWork(const std::vector<uint8_t>& bytes,
                                     const StolenWorkBounds* bounds,
                                     SubgraphEnumerator::StolenWork* work) {
  ByteReader reader(bytes);
  Subgraph& prefix = work->prefix;
  const bool words_ok = DecodeWords(&reader, &prefix);
  work->extension = reader.GetU32();
  work->primitive_index = reader.GetU32();
  const uint64_t lineage_lo = reader.GetU32();
  const uint64_t lineage_hi = reader.GetU32();
  work->lineage_id = (lineage_hi << 32) | lineage_lo;
  // Bounds before the bitsets are rebuilt: they grow to cover every id, and
  // the thief's search push reads adjacency rows by them.
  if (!words_ok || !reader.ok() || !reader.AtEnd() ||
      (bounds != nullptr && !WithinBounds(*work, *bounds))) {
    prefix.Clear();
    return false;
  }
  FinishDecode(&prefix);
  return true;
}

bool SubgraphCodec::WithinBounds(const SubgraphEnumerator::StolenWork& work,
                                 const StolenWorkBounds& bounds) {
  const Subgraph& prefix = work.prefix;
  for (const VertexId v : prefix.vertices_) {
    if (v >= bounds.num_vertices) return false;
  }
  for (const EdgeId e : prefix.edges_) {
    if (e >= bounds.num_edges) return false;
  }
  if (work.primitive_index == kReplayRootPrimitive) {
    return prefix.records_.empty() &&
           work.extension < bounds.num_replay_roots;
  }
  return work.extension < bounds.num_extensions &&
         work.primitive_index < bounds.expansions_before.size() &&
         prefix.records_.size() + 1 ==
             bounds.expansions_before[work.primitive_index];
}

}  // namespace fractal
