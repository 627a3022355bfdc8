#include "tune/tune.h"

#include "core/digest.h"

namespace dbsens {

std::string
TuneMove::name() const
{
    const std::string ft = std::to_string(from);
    const std::string tt = std::to_string(to);
    const std::string st = std::to_string(step);
    switch (kind) {
      case Kind::ShiftCores:
        return "cores" + ft + ">" + tt + "x" + st;
      case Kind::ShiftLlc:
        return "llc" + ft + ">" + tt + "x" + st;
      case Kind::ShiftGrant:
        return "grant" + ft + ">" + tt + "x" + st;
      case Kind::MaxdopUp:
        return "dop" + tt + "+" + st;
      case Kind::MaxdopDown:
        return "dop" + tt + "-" + st;
    }
    return "?";
}

void
TuneResult::merge(const TuneResult &o)
{
    // Copying the first phase keeps one-phase results (and the
    // reports and digests built on them) exactly the autopilot's.
    if (!enabled) {
        *this = o;
        return;
    }
    epochs += o.epochs;
    probes += o.probes;
    shifts += o.shifts;
    rollbacks += o.rollbacks;
    freezes += o.freezes;
    // Chain phase digests the way ResilResult::merge does: an
    // order-sensitive fold, so the whole run stays bit-comparable.
    trajectoryDigest = fnv1aWord(trajectoryDigest, o.trajectoryDigest);
    score = o.score;
    finalState = o.finalState;
    probeDeltas = o.probeDeltas;
}

} // namespace dbsens
