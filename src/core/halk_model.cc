#include "core/halk_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "core/distance.h"
#include "nn/attention.h"
#include "nn/init.h"

namespace halk::core {

using tensor::Tensor;

namespace {
constexpr float kPi = 3.14159265358979f;
constexpr float kTwoPi = 2.0f * kPi;
}  // namespace

HalkModel::HalkModel(const ModelConfig& config,
                     const kg::NodeGrouping* grouping,
                     const EntityTable* entity_table)
    : QueryModel(config),
      grouping_(grouping),
      rng_(config.seed),
      table_(entity_table != nullptr ? entity_table : &ram_table_) {
  HALK_CHECK_GT(config.num_entities, 0);
  HALK_CHECK_GT(config.num_relations, 0);
  const int64_t d = config.dim;
  const int64_t h = config.hidden;

  if (store_backed()) {
    // Store-backed: the [N, d] table stays in the external rows. Skipping
    // its allocation (and its RNG draws) means the remaining tables init
    // differently from an equally-seeded in-RAM model — irrelevant in
    // practice, since store-backed models load every operator weight from
    // the snapshot's params blob.
    HALK_CHECK_EQ(table_->num_entities, config.num_entities);
    HALK_CHECK_EQ(table_->dim, d);
  } else {
    entity_angles_ = Tensor::Zeros({config.num_entities, d});
    nn::UniformInit(&entity_angles_, 0.0f, kTwoPi, &rng_);
    entity_angles_.set_requires_grad(true);
    // Training updates the tensor in place, so the table stays valid.
    ram_table_ =
        EntityTable::RowMajor(entity_angles_.data(), config.num_entities, d);
  }

  rel_center_ = Tensor::Zeros({config.num_relations, d});
  nn::UniformInit(&rel_center_, -kPi, kPi, &rng_);
  rel_center_.set_requires_grad(true);

  // Arcs start near-degenerate (points): wide initial arcs let the loss
  // collapse by swallowing positives without learning precise centers.
  rel_length_ = Tensor::Zeros({config.num_relations, d});
  nn::UniformInit(&rel_length_, 0.0f, 0.02f, &rng_);
  rel_length_.set_requires_grad(true);

  proj_center_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, d},
                                           &rng_);
  proj_length_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, d},
                                           &rng_);
  // Residual correction heads start at exactly zero so the operator is a
  // pure relation rotation at step 0 (random ±π corrections would scramble
  // the rotation geometry and prevent it from ever forming).
  proj_center_->ZeroInitFinalLayer();
  proj_length_->ZeroInitFinalLayer();

  diff_att_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, d},
                                        &rng_);
  // κ privileges the minuend so the semantic center stays inside A_1.
  kappa_first_ = Tensor::Full({d}, 1.5f).set_requires_grad(true);
  kappa_rest_ = Tensor::Full({d}, 0.5f).set_requires_grad(true);
  diff_sets_ = std::make_unique<nn::DeepSets>(std::vector<int64_t>{2 * d, h},
                                              std::vector<int64_t>{h, d},
                                              &rng_);

  inter_att_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, d},
                                         &rng_);
  inter_sets_ = std::make_unique<nn::DeepSets>(std::vector<int64_t>{2 * d, h},
                                               std::vector<int64_t>{h, d},
                                               &rng_);

  neg_t1_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{d, h}, &rng_);
  neg_t2_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{d, h}, &rng_);
  neg_center_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * h, d},
                                          &rng_);
  neg_length_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * h, d},
                                          &rng_);
  neg_center_->ZeroInitFinalLayer();
  neg_length_->ZeroInitFinalLayer();
}

EmbeddingBatch HalkModel::EmbedAnchors(const std::vector<int64_t>& entities) {
  Tensor center = GatherEntityRows(entities);
  Tensor length =
      Tensor::Zeros({static_cast<int64_t>(entities.size()), config_.dim});
  return {center, length};
}

Tensor HalkModel::GatherEntityRows(const std::vector<int64_t>& entities) const {
  if (!store_backed()) return tensor::Gather(entity_angles_, entities);
  // Store-backed lookup: bit-exact rows copied out of the table. No
  // autograd edge — serving only.
  const int64_t d = config_.dim;
  Tensor out = Tensor::Zeros({static_cast<int64_t>(entities.size()), d});
  for (size_t i = 0; i < entities.size(); ++i) {
    table_->CopyRow(entities[i], out.data() + static_cast<int64_t>(i) * d);
  }
  return out;
}

EmbeddingBatch HalkModel::Projection(const EmbeddingBatch& input,
                                     const std::vector<int64_t>& relations) {
  // Rotate by the relation arc to get the approximate result arc.
  Tensor r_center = tensor::Gather(rel_center_, relations);
  Tensor r_length = tensor::Gather(rel_length_, relations);
  EmbeddingBatch approx{tensor::Add(input.a, r_center),
                        tensor::Add(input.b, r_length)};
  // Adjust start and end points cooperatively (Eq. 2), parameterized as a
  // bounded residual around the rotation: the MLP (fed the coordinated
  // [A_S ‖ A_E] pair) rotates the center by up to ±π·tanh(λ·) and rescales
  // the arclength by a sigmoid factor in (0, 2). At initialization this is
  // a near-pure rotation, which keeps the operator trainable at CPU scale
  // while preserving Eq. (2)'s joint center/cardinality adjustment.
  Tensor pair = StartEndPair(approx, config_.rho);
  Tensor center = tensor::Mod2Pi(tensor::Add(
      approx.a,
      tensor::MulScalar(
          tensor::Tanh(tensor::MulScalar(proj_center_->Forward(pair),
                                         config_.lambda)),
          kPi)));
  Tensor length = tensor::Clamp(
      tensor::Add(approx.b,
                  tensor::MulScalar(
                      tensor::Tanh(proj_length_->Forward(pair)),
                      kPi / 4.0f)),
      0.0f, kTwoPi * config_.rho);
  return {center, length};
}

Tensor HalkModel::SemanticAverageCenter(
    const std::vector<EmbeddingBatch>& inputs,
    const std::vector<Tensor>& scores) const {
  std::vector<Tensor> weights = nn::SoftmaxAcross(scores);
  Tensor x_sa;
  Tensor y_sa;
  for (size_t i = 0; i < inputs.size(); ++i) {
    // Rectangular coordinates avoid the periodic averaging problem (Eq. 4).
    Tensor x = tensor::MulScalar(tensor::Cos(inputs[i].a), config_.rho);
    Tensor y = tensor::MulScalar(tensor::Sin(inputs[i].a), config_.rho);
    Tensor wx = tensor::Mul(weights[i], x);
    Tensor wy = tensor::Mul(weights[i], y);
    x_sa = x_sa.defined() ? tensor::Add(x_sa, wx) : wx;
    y_sa = y_sa.defined() ? tensor::Add(y_sa, wy) : wy;
  }
  // atan2 + wrap implements arctan(y/x) with the Reg(·) quadrant fix of
  // Eq. (6) in one differentiable step.
  return tensor::Mod2Pi(tensor::Atan2(y_sa, x_sa));
}

EmbeddingBatch HalkModel::Difference(
    const std::vector<EmbeddingBatch>& inputs) {
  HALK_CHECK_GE(inputs.size(), 2u);
  // Attention scores with the hard-coded minuend asymmetry κ (Eq. 7).
  std::vector<Tensor> scores;
  scores.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor base = diff_att_->Forward(StartEndPair(inputs[i], config_.rho));
    const Tensor& kappa = (i == 0) ? kappa_first_ : kappa_rest_;
    scores.push_back(tensor::Mul(base, kappa));
  }
  Tensor center = SemanticAverageCenter(inputs, scores);

  // Arclength with the cardinality constraint (Eqs. 8-9): chord-length
  // overlap features against the minuend, DeepSets, sigmoid shrink factor.
  std::vector<Tensor> overlap_features;
  for (size_t j = 1; j < inputs.size(); ++j) {
    Tensor delta_c = tensor::MulScalar(
        tensor::Sin(tensor::MulScalar(
            tensor::Sub(inputs[0].a, inputs[j].a), 0.5f)),
        2.0f * config_.rho);
    Tensor delta_l = tensor::Sub(inputs[0].b, inputs[j].b);
    overlap_features.push_back(tensor::Concat({delta_c, delta_l}, 1));
  }
  Tensor shrink = tensor::Sigmoid(diff_sets_->Forward(overlap_features));
  Tensor length = tensor::Mul(inputs[0].b, shrink);
  return {center, length};
}

EmbeddingBatch HalkModel::Intersection(
    const std::vector<EmbeddingBatch>& inputs, const std::vector<Tensor>& z) {
  HALK_CHECK_GE(inputs.size(), 2u);
  HALK_CHECK(z.empty() || z.size() == inputs.size());
  // Attention scores scaled by group similarity (Eq. 10).
  std::vector<Tensor> scores;
  scores.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor base = inter_att_->Forward(StartEndPair(inputs[i], config_.rho));
    scores.push_back(z.empty() ? base : tensor::Mul(z[i], base));
  }
  Tensor center = SemanticAverageCenter(inputs, scores);

  // Arclength: min of input arc angles shrunk by a permutation-invariant
  // influence factor (Eqs. 11-12).
  Tensor min_alpha = tensor::MulScalar(inputs[0].b, 1.0f / config_.rho);
  for (size_t i = 1; i < inputs.size(); ++i) {
    min_alpha = tensor::Minimum(
        min_alpha, tensor::MulScalar(inputs[i].b, 1.0f / config_.rho));
  }
  std::vector<Tensor> pairs;
  pairs.reserve(inputs.size());
  for (const EmbeddingBatch& in : inputs) {
    pairs.push_back(StartEndPair(in, config_.rho));
  }
  Tensor shrink = tensor::Sigmoid(inter_sets_->Forward(pairs));
  Tensor alpha = tensor::Mul(min_alpha, shrink);
  return {center, tensor::MulScalar(alpha, config_.rho)};
}

EmbeddingBatch HalkModel::Negation(const EmbeddingBatch& input) {
  // Linear antipodal initialization (Eq. 13): center flipped by π, length
  // complemented to the full circle.
  Tensor approx_center =
      tensor::Mod2Pi(tensor::AddScalar(input.a, kPi));
  Tensor approx_length = tensor::AddScalar(tensor::Neg(input.b),
                                           kTwoPi * config_.rho);
  Tensor approx_alpha =
      tensor::MulScalar(approx_length, 1.0f / config_.rho);

  // Non-linear correction (Eq. 14), as a bounded residual around the
  // antipodal initialization (same parameterization rationale as
  // Projection).
  Tensor t1 = neg_t1_->Forward(approx_center);
  Tensor t2 = neg_t2_->Forward(approx_alpha);
  Tensor cat = tensor::Concat({t1, t2}, 1);
  Tensor center = tensor::Mod2Pi(tensor::Add(
      approx_center,
      tensor::MulScalar(
          tensor::Tanh(tensor::MulScalar(neg_center_->Forward(cat),
                                         config_.lambda)),
          kPi)));
  Tensor length = tensor::Clamp(
      tensor::Add(approx_length,
                  tensor::MulScalar(tensor::Tanh(neg_length_->Forward(cat)),
                                    kPi / 4.0f)),
      0.0f, kTwoPi * config_.rho);
  return {center, length};
}

Tensor HalkModel::Distance(const std::vector<int64_t>& entities,
                           const EmbeddingBatch& embedding) {
  Tensor points = GatherEntityRows(entities);
  return ArcDistance(points, embedding, config_.rho, config_.eta);
}

void HalkModel::DistancesToAll(const EmbeddingBatch& embedding, int64_t row,
                               std::vector<float>* out) const {
  DistancesToRange(embedding, row, 0, config_.num_entities, out);
}

void HalkModel::DistancesToRange(const EmbeddingBatch& embedding, int64_t row,
                                 int64_t begin, int64_t end,
                                 std::vector<float>* out) const {
  const int64_t d = config_.dim;
  const ArcConstants arc = MakeArcConstants(
      embedding.a.data() + row * d, embedding.b.data() + row * d, d,
      config_.rho, config_.eta);
  out->resize(static_cast<size_t>(end - begin));
  table_->Distances(arc, begin, end, out->data());
}

void HalkModel::PrepareForServing() {
  if (store_backed()) return;
  // Code into a copy and publish only on a change, so preparing an
  // unchanged model again writes nothing a concurrent scan could read.
  EntityTable coded = EntityTable::RowMajor(
      entity_angles_.data(), config_.num_entities, config_.dim);
  coded.EncodeCodes(0, coded.num_entities);
  if (coded.codes != ram_table_.codes) ram_table_.codes = std::move(coded.codes);
}

double HalkModel::MembershipThreshold(const EmbeddingBatch& embedding,
                                      int64_t row) const {
  const float rho = config_.rho;
  const float eta = config_.eta;
  if (rho <= 0.0f || eta < 0.0f) return -1.0;
  const int64_t d = config_.dim;
  // The kernel's own half-width chords, so the threshold is consistent
  // with the distances it is compared against.
  const ArcConstants arc = MakeArcConstants(
      embedding.a.data() + row * d, embedding.b.data() + row * d, d, rho,
      eta);
  double tau = 0.0;
  for (const ArcDimConstants& k : arc.dims) tau += k.half_width;
  return static_cast<double>(eta) * tau;
}

void HalkModel::AccumulateTopKRange(const std::vector<BranchRef>& branches,
                                    int64_t begin, int64_t end,
                                    TopKAccumulator* acc,
                                    ScanStats* stats) const {
  const int64_t d = config_.dim;
  std::vector<ArcConstants> arcs;
  arcs.reserve(branches.size());
  for (const BranchRef& branch : branches) {
    arcs.push_back(MakeArcConstants(
        branch.embedding->a.data() + branch.row * d,
        branch.embedding->b.data() + branch.row * d, d, config_.rho,
        config_.eta));
  }
  // Early exit is only a lower-bound argument when every per-dimension
  // term is non-negative.
  const bool prune = config_.rho > 0.0f && config_.eta >= 0.0f;
  table_->AccumulateTopK(arcs, begin, end, prune, acc, stats);
}

std::vector<Tensor> HalkModel::Parameters() const {
  // Store-backed models have no in-RAM entity table: Parameters() is then
  // exactly the params-blob tensor list (store/writer.h).
  std::vector<Tensor> out;
  if (!store_backed()) out.push_back(entity_angles_);
  out.push_back(rel_center_);
  out.push_back(rel_length_);
  out.push_back(kappa_first_);
  out.push_back(kappa_rest_);
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(proj_center_.get()),
        static_cast<const nn::Module*>(proj_length_.get()),
        static_cast<const nn::Module*>(diff_att_.get()),
        static_cast<const nn::Module*>(diff_sets_.get()),
        static_cast<const nn::Module*>(inter_att_.get()),
        static_cast<const nn::Module*>(inter_sets_.get()),
        static_cast<const nn::Module*>(neg_t1_.get()),
        static_cast<const nn::Module*>(neg_t2_.get()),
        static_cast<const nn::Module*>(neg_center_.get()),
        static_cast<const nn::Module*>(neg_length_.get())}) {
    for (const Tensor& p : m->Parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace halk::core
