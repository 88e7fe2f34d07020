/// \file
/// MergeLedger — the one epoch-merge implementation behind both the
/// offline `hhh-collector` tool and the `hhh-collectord` daemon, so the
/// file path and the socket path cannot drift.
///
/// A ledger folds vantage *scopes* (decoded snapshot frames: one engine
/// each — a Memento sliding detector is an engine too) and maintains:
///
///   * per compatibility group (keyed by engine name), a running merged
///     head via the same merge_from() semantics the sharded front-end uses
///     in-process;
///   * the union of every scope's *locally extracted* HHH prefixes —
///     extraction happens inside fold(), before the scope is merged,
///     exactly like the tool's pre-merge extraction pass.
///
/// report() then yields the merged network-wide set per group and the
/// paper's reveal: hidden HHHs = merged − locally-seen. Ledgers compose:
/// absorb() folds another ledger's groups in *without* re-extracting
/// them as local scopes, which is how the daemon folds each epoch's
/// ledger into its cumulative one (an epoch's merged set must not count
/// as "seen by a single vantage").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/hhh_types.hpp"
#include "wire/snapshot.hpp"

namespace hhh::service {

/// Threshold configuration shared by tool and daemon: a relative phi, or
/// an absolute byte threshold that converts to a per-scope phi.
struct Thresholds {
  double phi = 0.05;            ///< relative threshold (used when T == 0)
  double threshold_bytes = 0.0; ///< absolute T in bytes (0 = relative mode)

  /// The scope-local threshold: absolute-T mode converts T into the phi
  /// this scope's total implies; relative mode uses phi as-is. This is
  /// the mode in which distributed hidden HHHs exist: a source sending
  /// T/3 through each of 3 vantages is under T everywhere locally but
  /// over T globally.
  double scope_phi(double scope_total) const;
};

/// One decoded vantage contribution.
struct Scope {
  std::string label;                  ///< origin (stats, logs)
  std::unique_ptr<HhhEngine> engine;  ///< the decoded snapshot
};

/// Decode one snapshot frame into a Scope (wire::load_engine). Throws
/// wire::WireFormatError on malformed payloads and, with
/// kUnsupportedEngine, for frame kinds that are not vantage state
/// (stream-protocol frames, checkpoints, the retired WCSS kind 6).
Scope decode_scope(const wire::FrameView& frame, std::string label);

/// One merged compatibility group in a report.
struct GroupReport {
  std::string key;  ///< engine name ("exact", "memento_v6", ...)
  HhhSet merged;    ///< the group's network-wide HHH set
};

/// The collector's output: merged sets plus the hidden-HHH reveal.
struct LedgerReport {
  std::vector<GroupReport> groups;   ///< one entry per compatibility group
  std::vector<PrefixKey> hidden;     ///< heavy globally, reported by no scope
  std::size_t scopes_folded = 0;     ///< vantage scopes folded so far
};

/// The merge accumulator described in the file header.
class MergeLedger {
 public:
  /// An empty ledger applying `thresholds` to every extraction.
  explicit MergeLedger(Thresholds thresholds = {});

  /// Fold one vantage scope: extract its local HHH set (returned, and
  /// accumulated into the locally-seen union), then merge its state into
  /// the matching group head. Throws std::invalid_argument when the
  /// scope's parameters are incompatible with its group — the caller
  /// maps this to the "incompatible snapshots" exit path.
  HhhSet fold(Scope scope);

  /// Fold another ledger's merged groups into this one, WITHOUT treating
  /// them as local scopes (their extractions do not enter the
  /// locally-seen union; their folded scope counts and locally-seen sets
  /// carry over). Throws std::invalid_argument on incompatible groups.
  void absorb(MergeLedger&& other);

  /// Extract every group's merged set and compute the hidden HHHs.
  LedgerReport report() const;

  /// Every group head serialized as one snapshot frame, concatenated —
  /// the same self-delimiting stream `hhh-collector --stdin` consumes,
  /// so collectors compose into aggregation trees. Group order is
  /// first-folded first (stable across runs).
  std::vector<std::vector<std::uint8_t>> save_group_frames() const;

  /// Serialize the full ledger (groups + locally-seen union) for the
  /// daemon checkpoint. Thresholds are NOT included — the checkpoint
  /// owner persists and validates its own parameters.
  void save_state(wire::Writer& w) const;

  /// Restore state written by save_state() into an empty ledger. Throws
  /// wire::WireFormatError on malformed input.
  void load_state(wire::Reader& r);

  /// Vantage scopes folded (directly or via absorb).
  std::size_t scopes_folded() const noexcept { return scopes_folded_; }
  /// True when nothing has been folded.
  bool empty() const noexcept { return groups_.empty(); }
  /// The configured thresholds.
  const Thresholds& thresholds() const noexcept { return thresholds_; }

 private:
  struct Group {
    std::string key;
    std::unique_ptr<HhhEngine> engine;
  };

  Group* find_group(const std::string& key);

  Thresholds thresholds_;
  std::vector<Group> groups_;
  PrefixUnion seen_locally_;
  std::size_t scopes_folded_ = 0;
};

}  // namespace hhh::service
