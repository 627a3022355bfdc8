#include "workloads/workload.h"

#include "workloads/asdb/asdb.h"
#include "workloads/htap/htap.h"
#include "workloads/tpce/tpce.h"

namespace dbsens {

std::unique_ptr<OltpWorkload>
makeOltpWorkload(const std::string &name, int sf)
{
    if (name == "TPC-E")
        return std::make_unique<tpce::TpceWorkload>(sf);
    if (name == "ASDB")
        return std::make_unique<asdb::AsdbWorkload>(sf);
    if (name == "HTAP")
        return std::make_unique<htap::HtapWorkload>(sf);
    return nullptr;
}

} // namespace dbsens
