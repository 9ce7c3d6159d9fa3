#include "kg/csr.h"

#include <limits>

#include "common/logging.h"

namespace halk::kg {

size_t CsrIndex::Slot(int64_t entity, int64_t relation) const {
  HALK_CHECK_GE(entity, 0);
  HALK_CHECK_LT(entity, num_entities_);
  HALK_CHECK_GE(relation, 0);
  HALK_CHECK_LT(relation, num_relations_);
  return static_cast<size_t>(relation * num_entities_ + entity);
}

void CsrIndex::Build(int64_t num_entities, int64_t num_relations,
                     const std::vector<Triple>& triples) {
  HALK_CHECK_LE(triples.size(), size_t{std::numeric_limits<uint32_t>::max()})
      << "CsrIndex offsets are 32-bit";
  num_entities_ = num_entities;
  num_relations_ = num_relations;
  const size_t slots = static_cast<size_t>(num_entities * num_relations);
  fwd_offsets_.assign(slots + 1, 0);
  rev_offsets_.assign(slots + 1, 0);

  for (const Triple& t : triples) {
    fwd_offsets_[Slot(t.head, t.relation) + 1]++;
    rev_offsets_[Slot(t.tail, t.relation) + 1]++;
  }
  for (size_t i = 1; i <= slots; ++i) {
    fwd_offsets_[i] += fwd_offsets_[i - 1];
    rev_offsets_[i] += rev_offsets_[i - 1];
  }
  fwd_values_.assign(triples.size(), 0);
  rev_values_.assign(triples.size(), 0);
  std::vector<uint32_t> fwd_cursor(fwd_offsets_.begin(),
                                   fwd_offsets_.end() - 1);
  std::vector<uint32_t> rev_cursor(rev_offsets_.begin(),
                                   rev_offsets_.end() - 1);
  for (const Triple& t : triples) {
    fwd_values_[static_cast<size_t>(fwd_cursor[Slot(t.head, t.relation)]++)] =
        t.tail;
    rev_values_[static_cast<size_t>(rev_cursor[Slot(t.tail, t.relation)]++)] =
        t.head;
  }
}

std::span<const int64_t> CsrIndex::Tails(int64_t head, int64_t relation) const {
  const size_t s = Slot(head, relation);
  return {fwd_values_.data() + fwd_offsets_[s],
          static_cast<size_t>(fwd_offsets_[s + 1] - fwd_offsets_[s])};
}

std::span<const int64_t> CsrIndex::Heads(int64_t tail, int64_t relation) const {
  const size_t s = Slot(tail, relation);
  return {rev_values_.data() + rev_offsets_[s],
          static_cast<size_t>(rev_offsets_[s + 1] - rev_offsets_[s])};
}

}  // namespace halk::kg
