#include "algo/weak_color_mc.h"

#include <algorithm>
#include <numeric>

#include "local/vector_engine.h"
#include "util/assert.h"

namespace lnc::algo {
namespace {

class WeakColorProgram final : public local::NodeProgram {
 public:
  explicit WeakColorProgram(int fixup_rounds) : total_rounds_(fixup_rounds + 1) {}

  bool init(const local::NodeEnv& env) override {
    LNC_EXPECTS(env.rng != nullptr);
    rng_ = env.rng;
    bit_ = rng_->next_below(2);
    if (env.degree == 0) return true;  // isolated nodes are unconstrained
    return false;
  }

  void send(int /*round*/, local::MessageWriter& out) override {
    out.push(bit_);
  }

  bool receive(int round, const local::Inbox& inbox) override {
    bool all_agree = true;
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      if (inbox[p].empty()) continue;  // silent port cannot disagree
      if (inbox[p][0] != bit_) {
        all_agree = false;
        break;
      }
    }
    if (all_agree && round < total_rounds_) {
      bit_ = rng_->next_below(2);  // resample; maybe the flip helps
    }
    return round >= total_rounds_;
  }

  local::Label output() const override { return bit_; }

  /// Recyclable iff configured for the same round count (init reassigns
  /// the rng and resamples the bit; nothing else carries state).
  bool reset(int total_rounds) noexcept { return total_rounds == total_rounds_; }

 private:
  int total_rounds_;
  rand::NodeRng* rng_ = nullptr;
  std::uint64_t bit_ = 0;
};

/// SoA lockstep counterpart of WeakColorProgram: one bit per (trial, node),
/// resampled in place against a per-trial snapshot of the round-start bits
/// (the snapshot IS the round's broadcast, so no messages materialize).
class WeakColorVectorProgram final : public local::VectorProgram {
 public:
  explicit WeakColorVectorProgram(int fixup_rounds)
      : total_rounds_(fixup_rounds + 1) {}

  std::string name() const override {
    return "weak-color-mc(R=" + std::to_string(total_rounds_ - 1) + ")";
  }

  void init(local::VectorBatch& batch) override {
    const auto& g = batch.instance().g;
    const std::uint32_t n = batch.nodes();
    bits_.resize(static_cast<std::size_t>(batch.trials()) * n);
    prev_.resize(n);
    // Initial colors for the whole batch through the bulk philox kernel:
    // next_below(2) accepts its first draw unconditionally (the rejection
    // threshold for bound 2 is 0), so bit v IS draw 0 of stream (t, v)
    // taken mod 2 — identical to the scalar program's init.
    pending_.resize(n);
    std::iota(pending_.begin(), pending_.end(), 0u);
    for (std::uint32_t t = 0; t < batch.trials(); ++t) {
      std::uint8_t* row = bits_.data() + batch.at(t, 0);
      batch.draw_next(t, pending_, draws_);
      for (std::uint32_t v = 0; v < n; ++v) {
        row[v] = static_cast<std::uint8_t>(draws_[v] & 1);
        if (g.degree(v) == 0) batch.set_halted(t, v);  // unconstrained
      }
    }
  }

  void round(local::VectorBatch& batch, int round) override {
    const auto& g = batch.instance().g;
    const std::uint32_t n = batch.nodes();
    batch.for_each_live_trial([&](std::uint32_t t) {
      // Every live node (halted relays included) broadcasts its one-word
      // bit; crashed nodes are silent.
      const std::uint64_t senders = n - batch.dead_count(t);
      batch.add_traffic(t, senders, senders);
      std::uint8_t* row = bits_.data() + batch.at(t, 0);
      if (round >= total_rounds_) {
        // Past the fixup schedule nothing resamples; everyone halts.
        batch.for_each_active_node(
            t, [&](std::uint32_t v) { batch.set_halted(t, v); });
        return;
      }
      std::copy(row, row + n, prev_.begin());
      const local::VectorBatch::Hearing hears = batch.hearing(t);
      // Gather the all-agree nodes (a silent port cannot disagree), then
      // resample them in one bulk philox call (bit-identical to per-node
      // next_below(2); see init).
      pending_.clear();
      batch.for_each_active_node(t, [&](std::uint32_t v) {
        const auto nbrs = g.neighbors(v);
        for (std::size_t p = 0; p < nbrs.size(); ++p) {
          if (prev_[nbrs[p]] != prev_[v] && hears(g.port_offset(v) + p)) return;
        }
        pending_.push_back(v);
      });
      batch.draw_next(t, pending_, draws_);
      for (std::size_t p = 0; p < pending_.size(); ++p) {
        row[pending_[p]] = static_cast<std::uint8_t>(draws_[p] & 1);
      }
    });
  }

  void output(const local::VectorBatch& batch, std::uint32_t trial,
              local::Labeling& out) const override {
    const std::uint32_t n = batch.nodes();
    out.resize(n);
    const std::uint8_t* row = bits_.data() + batch.at(trial, 0);
    for (std::uint32_t v = 0; v < n; ++v) out[v] = row[v];
  }

  std::size_t footprint_bytes() const noexcept override {
    return bits_.capacity() + prev_.capacity();
  }

 private:
  int total_rounds_;
  std::vector<std::uint8_t> bits_;  // [trial * n + node]
  std::vector<std::uint8_t> prev_;  // round-start snapshot of one trial
  std::vector<std::uint32_t> pending_;  // draw-pass gather
  std::vector<std::uint64_t> draws_;    // its draws
};

}  // namespace

WeakColorMcFactory::WeakColorMcFactory(int fixup_rounds)
    : fixup_rounds_(fixup_rounds) {
  LNC_EXPECTS(fixup_rounds >= 0);
}

std::string WeakColorMcFactory::name() const {
  return "weak-color-mc(R=" + std::to_string(fixup_rounds_) + ")";
}

std::unique_ptr<local::NodeProgram> WeakColorMcFactory::create() const {
  return std::make_unique<WeakColorProgram>(fixup_rounds_);
}

bool WeakColorMcFactory::recreate(local::NodeProgram& program) const {
  auto* weak = dynamic_cast<WeakColorProgram*>(&program);
  return weak != nullptr && weak->reset(fixup_rounds_ + 1);
}

std::unique_ptr<local::VectorProgram> WeakColorMcFactory::create_vector()
    const {
  return std::make_unique<WeakColorVectorProgram>(fixup_rounds_);
}

local::EngineResult run_weak_color_mc(const local::Instance& inst,
                                      const rand::CoinProvider& coins,
                                      int fixup_rounds) {
  WeakColorMcFactory factory(fixup_rounds);
  local::EngineOptions options;
  options.coins = &coins;
  return run_engine(inst, factory, options);
}

}  // namespace lnc::algo
