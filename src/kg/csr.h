#ifndef HALK_KG_CSR_H_
#define HALK_KG_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

namespace halk::kg {

struct Triple {
  int64_t head;
  int64_t relation;
  int64_t tail;

  bool operator==(const Triple& other) const = default;
};

/// Compressed sparse adjacency over (entity, relation) pairs in both
/// directions: `Tails(h, r)` enumerates t with (h, r, t) and `Heads(t, r)`
/// enumerates h. Built once; lookups are O(1) + output size.
class CsrIndex {
 public:
  CsrIndex() = default;

  void Build(int64_t num_entities, int64_t num_relations,
             const std::vector<Triple>& triples);

  std::span<const int64_t> Tails(int64_t head, int64_t relation) const;
  std::span<const int64_t> Heads(int64_t tail, int64_t relation) const;

  /// Out-degree of `head` under `relation`.
  int64_t OutDegree(int64_t head, int64_t relation) const {
    return static_cast<int64_t>(Tails(head, relation).size());
  }

  int64_t num_entities() const { return num_entities_; }
  int64_t num_relations() const { return num_relations_; }

 private:
  // One offset table per relation over entities; values are shared flat
  // arrays. fwd: by head -> tails; rev: by tail -> heads. The offset tables
  // hold one entry per (relation, entity) slot, so they dominate the
  // index's memory; 32-bit offsets (Build checks the triple count) halve
  // them.
  size_t Slot(int64_t entity, int64_t relation) const;

  int64_t num_entities_ = 0;
  int64_t num_relations_ = 0;
  std::vector<uint32_t> fwd_offsets_;  // (num_relations * num_entities + 1)
  std::vector<int64_t> fwd_values_;
  std::vector<uint32_t> rev_offsets_;
  std::vector<int64_t> rev_values_;
};

}  // namespace halk::kg

#endif  // HALK_KG_CSR_H_
