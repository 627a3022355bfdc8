/**
 * @file
 * Fundamental scalar types and identifiers used across dbsens.
 */

#ifndef DBSENS_CORE_TYPES_H
#define DBSENS_CORE_TYPES_H

#include <cstdint>
#include <cstddef>

namespace dbsens {

/** Identifier of a table in the catalog. */
using TableId = uint32_t;

/** Identifier of a column within a table schema. */
using ColumnId = uint16_t;

/** Logical row identifier within a table (insertion order). */
using RowId = uint64_t;

/** Identifier of an 8 KB page in simulated storage. */
using PageId = uint64_t;

/** Identifier of a transaction. */
using TxnId = uint64_t;

/** Identifier of a client session in the simulator. */
using SessionId = uint32_t;

/** Invalid sentinel values. */
inline constexpr TableId kInvalidTable = ~TableId{0};
inline constexpr RowId kInvalidRow = ~RowId{0};
inline constexpr PageId kInvalidPage = ~PageId{0};

/** Simulated storage page size in bytes (SQL Server uses 8 KB pages). */
inline constexpr size_t kPageSize = 8192;

/** Cache line size used by the LLC model. */
inline constexpr size_t kCacheLineSize = 64;

/**
 * Tenant classes: the HTAP transactional mix and its analytical
 * session. The core scheduler's leases, the autopilot's shares, the
 * resilience controller's admission buckets, and the obs and sketch
 * per-tenant views all index by these.
 */
inline constexpr int kTenantOltp = 0; ///< transactional sessions
inline constexpr int kTenantOlap = 1; ///< analytical (DSS) sessions
inline constexpr int kNumTenants = 2;

} // namespace dbsens

#endif // DBSENS_CORE_TYPES_H
