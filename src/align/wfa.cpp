#include "align/wfa.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace pimnw::align {
namespace {

using Offset = std::int32_t;
constexpr Offset kNone = std::numeric_limits<Offset>::min() / 2;

/// One wavefront: furthest-reaching pattern offsets per diagonal
/// k = i - j, for k in [lo, hi].
struct Wavefront {
  std::int32_t lo = 0;
  std::int32_t hi = -1;  // empty by default
  std::vector<Offset> offsets;

  bool empty() const { return hi < lo; }

  Offset at(std::int32_t k) const {
    if (k < lo || k > hi) return kNone;
    return offsets[static_cast<std::size_t>(k - lo)];
  }

  void resize(std::int32_t new_lo, std::int32_t new_hi) {
    lo = new_lo;
    hi = new_hi;
    offsets.assign(hi < lo ? 0 : static_cast<std::size_t>(hi - lo + 1),
                   kNone);
  }

  void set(std::int32_t k, Offset offset) {
    PIMNW_DCHECK(k >= lo && k <= hi);
    offsets[static_cast<std::size_t>(k - lo)] = offset;
  }

  std::uint64_t cells() const {
    return empty() ? 0 : static_cast<std::uint64_t>(hi - lo + 1);
  }
};

/// Forward wavefront computation. In score-only mode old wavefronts are
/// recycled through a ring; in traceback mode every wavefront is retained
/// for the backtrace.
class WfaEngine {
 public:
  WfaEngine(std::string_view a, std::string_view b, const Scoring& scoring,
            const WfaOptions& options, bool keep_all)
      : a_(a),
        b_(b),
        scoring_(scoring),
        m_(static_cast<std::int64_t>(a.size())),
        n_(static_cast<std::int64_t>(b.size())),
        x_(2 * (scoring.match + scoring.mismatch)),
        open_cost_(2 * scoring.gap_open +
                   (2 * scoring.gap_extend + scoring.match)),
        ext_cost_(2 * scoring.gap_extend + scoring.match),
        keep_all_(keep_all),
        max_cost_(options.max_cost),
        max_cells_(options.max_cells != 0 ? options.max_cells
                                          : (std::uint64_t{1} << 28)) {
    PIMNW_CHECK_MSG(x_ > 0 && ext_cost_ > 0,
                    "scoring does not convert to positive WFA penalties");
    depth_ = static_cast<std::size_t>(
        std::max<std::int64_t>({x_, open_cost_, ext_cost_}) + 1);
  }

  /// Wavefront cells touched by the last run() — the WFA equivalent of the
  /// DP backends' cell counts (AlignResult::cells).
  std::uint64_t cells_used() const { return cells_used_; }

  /// Run until (m, n) is reached; returns the alignment cost, or nullopt on
  /// a bound. Trivial cases (either side empty) are handled by the callers.
  std::optional<std::uint64_t> run() {
    const std::int32_t k_final = static_cast<std::int32_t>(m_ - n_);
    ensure_slot(0);
    {
      Wavefront& wf = m_at(0);
      wf.resize(0, 0);
      wf.set(0, extend(0, 0));
      if (k_final == 0 && wf.at(0) >= m_) return 0;
    }
    cells_used_ = 1;

    for (std::uint64_t s = 1;; ++s) {
      if (max_cost_ != 0 && s > max_cost_) return std::nullopt;
      ensure_slot(s);

      const Wavefront& m_mis = source_m(s, static_cast<std::uint64_t>(x_));
      const Wavefront& m_open =
          source_m(s, static_cast<std::uint64_t>(open_cost_));
      const Wavefront& i_ext =
          source(i_wfs_, s, static_cast<std::uint64_t>(ext_cost_));
      const Wavefront& d_ext =
          source(d_wfs_, s, static_cast<std::uint64_t>(ext_cost_));

      std::int32_t lo = std::numeric_limits<std::int32_t>::max();
      std::int32_t hi = std::numeric_limits<std::int32_t>::min();
      auto widen = [&](const Wavefront& wf, int dlo, int dhi) {
        if (wf.empty()) return;
        lo = std::min(lo, wf.lo + dlo);
        hi = std::max(hi, wf.hi + dhi);
      };
      widen(m_mis, 0, 0);
      widen(m_open, -1, 1);
      widen(i_ext, -1, -1);
      widen(d_ext, 1, 1);

      Wavefront& iw = i_at(s);
      Wavefront& dw = d_at(s);
      Wavefront& mw = m_at(s);
      if (hi < lo) {
        iw.resize(0, -1);
        dw.resize(0, -1);
        mw.resize(0, -1);
        continue;
      }
      lo = std::max(lo, static_cast<std::int32_t>(-n_));
      hi = std::min(hi, static_cast<std::int32_t>(m_));

      iw.resize(lo, hi);
      dw.resize(lo, hi);
      mw.resize(lo, hi);
      cells_used_ += 3 * mw.cells();
      PIMNW_CHECK_MSG(cells_used_ <= max_cells_,
                      "WFA exceeded its memory budget (cost " << s << ")");

      for (std::int32_t k = lo; k <= hi; ++k) {
        const Offset ins = std::max(m_open.at(k + 1), i_ext.at(k + 1));
        const Offset del_src = std::max(m_open.at(k - 1), d_ext.at(k - 1));
        const Offset del =
            del_src == kNone ? kNone : static_cast<Offset>(del_src + 1);
        const Offset mis_src = m_mis.at(k);
        const Offset mis =
            mis_src == kNone ? kNone : static_cast<Offset>(mis_src + 1);

        iw.set(k, ins);
        dw.set(k, del);
        Offset best = std::max({ins, del, mis});
        if (best == kNone) {
          mw.set(k, kNone);
          continue;
        }
        const std::int64_t i = best;
        const std::int64_t j = i - k;
        if (i > m_ || j > n_ || j < 0) {
          mw.set(k, kNone);
          continue;
        }
        best = extend(k, best);
        mw.set(k, best);
        if (k == k_final && best >= m_) return s;
      }
    }
  }

  /// Walk the retained wavefronts back from (cost, M, k_final). Only valid
  /// after run() in keep_all mode.
  dna::Cigar backtrace(std::uint64_t cost) const {
    PIMNW_CHECK(keep_all_);
    dna::Cigar cigar;  // built back-to-front, reversed at the end
    enum class State { kM, kI, kD };
    State state = State::kM;
    std::uint64_t s = cost;
    std::int32_t k = static_cast<std::int32_t>(m_ - n_);
    Offset offset = static_cast<Offset>(m_);

    while (true) {
      if (state == State::kM) {
        // Sources that could have produced M_s[k] before match extension.
        const Offset mis_src =
            s >= static_cast<std::uint64_t>(x_)
                ? m_wfs_[static_cast<std::size_t>(s - x_)].at(k)
                : kNone;
        const Offset mis =
            mis_src == kNone ? kNone : static_cast<Offset>(mis_src + 1);
        const Offset ins = i_wfs_[static_cast<std::size_t>(s)].at(k);
        const Offset del = d_wfs_[static_cast<std::size_t>(s)].at(k);
        Offset src = std::max({mis, ins, del});
        if (s == 0 || src == kNone) {
          // Initial wavefront: everything back to the origin is matches.
          PIMNW_CHECK_MSG(s == 0 && k == 0,
                          "WFA backtrace lost the path at cost " << s);
          cigar.push(dna::CigarOp::kMatch,
                     static_cast<std::uint32_t>(offset));
          break;
        }
        // Match run covers the extension beyond the best source.
        PIMNW_DCHECK(offset >= src);
        cigar.push(dna::CigarOp::kMatch,
                   static_cast<std::uint32_t>(offset - src));
        if (src == mis) {
          cigar.push(dna::CigarOp::kMismatch);
          offset = static_cast<Offset>(src - 1);
          s -= static_cast<std::uint64_t>(x_);
        } else if (src == ins) {
          state = State::kI;
          offset = src;
        } else {
          state = State::kD;
          offset = src;
        }
      } else if (state == State::kI) {
        // Insertion consumed one text base: CIGAR 'D' in the query-centric
        // convention (target-only column).
        cigar.push(dna::CigarOp::kDelete);
        const Offset open =
            s >= static_cast<std::uint64_t>(open_cost_)
                ? m_wfs_[static_cast<std::size_t>(s - open_cost_)].at(k + 1)
                : kNone;
        const Offset ext =
            s >= static_cast<std::uint64_t>(ext_cost_)
                ? i_wfs_[static_cast<std::size_t>(s - ext_cost_)].at(k + 1)
                : kNone;
        PIMNW_CHECK_MSG(open == offset || ext == offset,
                        "WFA backtrace lost an insertion run");
        ++k;
        if (open == offset) {
          state = State::kM;
          s -= static_cast<std::uint64_t>(open_cost_);
        } else {
          s -= static_cast<std::uint64_t>(ext_cost_);
        }
      } else {
        // Deletion consumed one pattern base: CIGAR 'I'.
        cigar.push(dna::CigarOp::kInsert);
        const Offset target = static_cast<Offset>(offset - 1);
        const Offset open =
            s >= static_cast<std::uint64_t>(open_cost_)
                ? m_wfs_[static_cast<std::size_t>(s - open_cost_)].at(k - 1)
                : kNone;
        const Offset ext =
            s >= static_cast<std::uint64_t>(ext_cost_)
                ? d_wfs_[static_cast<std::size_t>(s - ext_cost_)].at(k - 1)
                : kNone;
        PIMNW_CHECK_MSG(open == target || ext == target,
                        "WFA backtrace lost a deletion run");
        --k;
        offset = target;
        if (open == target) {
          state = State::kM;
          s -= static_cast<std::uint64_t>(open_cost_);
        } else {
          s -= static_cast<std::uint64_t>(ext_cost_);
        }
      }
    }
    cigar.reverse();
    return cigar;
  }

  Score to_score(std::uint64_t cost) const {
    const std::int64_t numerator =
        scoring_.match * (m_ + n_) - static_cast<std::int64_t>(cost);
    PIMNW_DCHECK(numerator % 2 == 0);
    return static_cast<Score>(numerator / 2);
  }

 private:
  Offset extend(std::int32_t k, Offset i) const {
    std::int64_t ii = i;
    std::int64_t jj = ii - k;
    while (ii < m_ && jj < n_ &&
           a_[static_cast<std::size_t>(ii)] ==
               b_[static_cast<std::size_t>(jj)]) {
      ++ii;
      ++jj;
    }
    return static_cast<Offset>(ii);
  }

  void ensure_slot(std::uint64_t s) {
    if (keep_all_) {
      if (m_wfs_.size() <= s) {
        m_wfs_.resize(s + 1);
        i_wfs_.resize(s + 1);
        d_wfs_.resize(s + 1);
      }
    } else if (m_wfs_.size() < depth_) {
      m_wfs_.resize(depth_);
      i_wfs_.resize(depth_);
      d_wfs_.resize(depth_);
    }
  }

  std::size_t slot(std::uint64_t s) const {
    return keep_all_ ? static_cast<std::size_t>(s)
                     : static_cast<std::size_t>(s % depth_);
  }

  Wavefront& m_at(std::uint64_t s) { return m_wfs_[slot(s)]; }
  Wavefront& i_at(std::uint64_t s) { return i_wfs_[slot(s)]; }
  Wavefront& d_at(std::uint64_t s) { return d_wfs_[slot(s)]; }

  const Wavefront& source(const std::vector<Wavefront>& wfs, std::uint64_t s,
                          std::uint64_t back) const {
    static const Wavefront kEmpty{};
    if (s < back) return kEmpty;
    return wfs[slot(s - back)];
  }
  const Wavefront& source_m(std::uint64_t s, std::uint64_t back) const {
    return source(m_wfs_, s, back);
  }

  std::string_view a_;
  std::string_view b_;
  Scoring scoring_;
  std::int64_t m_;
  std::int64_t n_;
  std::int64_t x_;
  std::int64_t open_cost_;  // gap of length 1
  std::int64_t ext_cost_;   // each additional gap base
  bool keep_all_;
  std::uint64_t max_cost_;
  std::uint64_t max_cells_;
  std::uint64_t cells_used_ = 0;
  std::size_t depth_ = 0;

  std::vector<Wavefront> m_wfs_;
  std::vector<Wavefront> i_wfs_;
  std::vector<Wavefront> d_wfs_;
};

}  // namespace

std::optional<Score> wfa_score(std::string_view a, std::string_view b,
                               const Scoring& scoring,
                               const WfaOptions& options) {
  if (a.empty() || b.empty()) {
    return static_cast<Score>(
        -scoring.gap_cost(static_cast<std::uint64_t>(a.size() + b.size())));
  }
  WfaEngine engine(a, b, scoring, options, /*keep_all=*/false);
  const auto cost = engine.run();
  if (!cost) return std::nullopt;
  return engine.to_score(*cost);
}

std::optional<AlignResult> wfa_align(std::string_view a, std::string_view b,
                                     const Scoring& scoring,
                                     const WfaOptions& options) {
  AlignResult result;
  if (a.empty() || b.empty()) {
    result.reached_end = true;
    result.score = static_cast<Score>(
        -scoring.gap_cost(static_cast<std::uint64_t>(a.size() + b.size())));
    if (!a.empty()) {
      result.cigar.push(dna::CigarOp::kInsert,
                        static_cast<std::uint32_t>(a.size()));
    }
    if (!b.empty()) {
      result.cigar.push(dna::CigarOp::kDelete,
                        static_cast<std::uint32_t>(b.size()));
    }
    return result;
  }
  WfaEngine engine(a, b, scoring, options, /*keep_all=*/true);
  const auto cost = engine.run();
  if (!cost) return std::nullopt;
  result.reached_end = true;
  result.score = engine.to_score(*cost);
  result.cigar = engine.backtrace(*cost);
  result.cells = engine.cells_used();
  return result;
}

double wfa_estimate_cells(std::size_t len_a, std::size_t len_b,
                          const Scoring& scoring, double divergence,
                          std::uint64_t max_cost) {
  // Each error costs roughly the converted mismatch penalty x = 2(a+b).
  const double span = static_cast<double>(len_a + len_b);
  const double penalty =
      2.0 * static_cast<double>(scoring.match + scoring.mismatch);
  double cost = divergence * span * 0.5 * penalty;
  if (max_cost != 0) cost = std::min(cost, static_cast<double>(max_cost));
  const double width = std::min(2.0 * cost + 1.0, span);
  return std::max(span, cost * width);
}

}  // namespace pimnw::align
