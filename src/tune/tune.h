/**
 * @file
 * Shared types for the autopilot subsystem: the per-tenant knob
 * vector (tenants numbered in core/types.h), resource totals, and the tuning
 * configuration embedded in RunConfig.
 *
 * The paper's payoff claim is that resource-sensitivity profiles
 * should *inform allocation* (Section 10). The autopilot closes that
 * loop inside one simulated run: concurrent tenant classes (the HTAP
 * transactional mix and its analytical session) receive explicit
 * shares of the machine — core leases, CAT way masks, a MAXDOP cap,
 * and a query-memory budget — and a policy shifts those shares online
 * based on observed throughput deltas.
 *
 * Everything here is a plain value type; the subsystem is wired into
 * a run through callbacks (Autopilot::Actuators), so `tune` depends
 * only on core/ and sim/ and the engine stays free to include it.
 */

#ifndef DBSENS_TUNE_TUNE_H
#define DBSENS_TUNE_TUNE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sim_time.h"
#include "core/types.h"

namespace dbsens {

/** One tenant's resource share. */
struct TenantShare
{
    int cores = 16;      ///< leased logical cores
    int llcMb = 20;      ///< CAT share, MB across both sockets (even)
    int maxdop = 16;     ///< MAXDOP cap consulted at plan choice
    uint64_t grantBytes = 0; ///< query-memory budget

    bool
    operator==(const TenantShare &o) const
    {
        return cores == o.cores && llcMb == o.llcMb &&
               maxdop == o.maxdop && grantBytes == o.grantBytes;
    }
};

/** The complete knob vector: one share per tenant. */
struct KnobState
{
    TenantShare tenant[kNumTenants];

    bool
    operator==(const KnobState &o) const
    {
        for (int t = 0; t < kNumTenants; ++t)
            if (!(tenant[t] == o.tenant[t]))
                return false;
        return true;
    }
};

/** The run's total resources, set from RunConfig by the engine. */
struct ResourceTotals
{
    int cores = 32;          ///< RunConfig::cores
    int llcMb = 40;          ///< RunConfig::llcMb
    int maxdop = 32;         ///< RunConfig::maxdop
    uint64_t grantBytes = 0; ///< the run's query grant budget
};

/** Which policy the Autopilot runs. */
enum class TunePolicyKind {
    /** Hold a fixed KnobState (the naive even split by default). */
    Static,
    /** Probe knob sensitivities, then guardrailed hill-climbing. */
    ProbeAndShift,
    /** Hold the best static state found by an offline sweep. */
    OracleFromSweep,
};

inline const char *
tunePolicyName(TunePolicyKind k)
{
    switch (k) {
      case TunePolicyKind::Static: return "static";
      case TunePolicyKind::ProbeAndShift: return "probe-and-shift";
      case TunePolicyKind::OracleFromSweep: return "oracle";
    }
    return "?";
}

/**
 * Autopilot configuration (RunConfig::tune). Disabled by default:
 * a disabled config constructs no Autopilot, installs no leases or
 * COS masks, and leaves the run byte-identical.
 */
struct TuneConfig
{
    bool enabled = false;
    TunePolicyKind policy = TunePolicyKind::ProbeAndShift;

    /**
     * Initial (Static/Oracle: permanent) knob state. When unset the
     * arbiter's even split of the run's totals is used.
     */
    std::optional<KnobState> initial;

    /** Control-epoch length: scores are deltas over this window. */
    SimDuration epoch = milliseconds(10);

    /**
     * Guardrail: a trial shift is kept only if the epoch score
     * exceeds the baseline EWMA by this relative margin; otherwise
     * the shift is rolled back and the move cools down.
     */
    double hysteresis = 0.02;
};

/** One elementary knob change the arbiter can propose. */
struct TuneMove
{
    enum class Kind {
        ShiftCores, ///< move `step` cores from tenant `from` to `to`
        ShiftLlc,   ///< move `step` MB of LLC from `from` to `to`
        ShiftGrant, ///< move `step` MB of grant budget from `from`
        MaxdopUp,   ///< raise tenant `to`'s MAXDOP cap by `step`
        MaxdopDown, ///< lower tenant `to`'s MAXDOP cap by `step`
    };

    Kind kind = Kind::ShiftCores;
    int from = kTenantOltp;
    int to = kTenantOlap;
    int step = 2; ///< cores, MB, or DOP depending on kind

    std::string name() const;

    bool
    operator==(const TuneMove &o) const
    {
        return kind == o.kind && from == o.from && to == o.to &&
               step == o.step;
    }
};

/** One probed move and its measured score delta (TuneResult copy of
 * tune/probe.h's ProbeResult, kept header-local so harness code can
 * consume probe rankings without the policy headers). */
struct TuneProbeDelta
{
    TuneMove move;
    double delta = 0;
    /** Per-tenant rate delta of the probe epoch vs baseline (the
     * tenant's own gain, free of cross-tenant score externality). */
    double rateDelta[kNumTenants] = {0, 0};
    bool measured = false;
};

/** Harness-facing summary of one run's tuning activity. */
struct TuneResult
{
    bool enabled = false;
    std::string policy = "off";
    int epochs = 0;
    int probes = 0;     ///< probe micro-epochs executed
    int shifts = 0;     ///< committed knob shifts
    int rollbacks = 0;  ///< trial shifts reverted by the guardrail
    int freezes = 0;    ///< change-freezes entered (resilience)
    double score = 0;   ///< last epoch's weighted score
    KnobState finalState;
    /** FNV-1a fold of every applied knob change (determinism check). */
    uint64_t trajectoryDigest = 0;
    /** Probe deltas averaged over every probing pass, ranked best
     * first (empty under the static and oracle policies, which never
     * probe). Ground truth for validating blame
     * attribution's predicted sensitivity ranking (fig11). */
    std::vector<TuneProbeDelta> probeDeltas;

    /**
     * Accumulate another phase's result (crash-recovery phases). The
     * first phase is copied as is; later ones add their counts and
     * chain their digest, and the final state, score and probe
     * ranking are the last phase's.
     */
    void merge(const TuneResult &o);
};

} // namespace dbsens

#endif // DBSENS_TUNE_TUNE_H
