#ifndef HIERARQ_DATA_STORAGE_H_
#define HIERARQ_DATA_STORAGE_H_

/// \file storage.h
/// \brief Name of the one relation layout, for reports that print it.
///
/// Every `AnnotatedRelation` stores its support in a `ColumnarStore`
/// (data/columnar.h); there is nothing to select. This header only keeps
/// the name available to report writers that record which layout a run
/// measured. The engine itself does not include it.

namespace hierarq {

/// The relation layout. Columnar is the only one.
enum class StorageKind : unsigned char { kColumnar = 2 };

inline constexpr StorageKind kDefaultStorageKind = StorageKind::kColumnar;

/// "columnar" — the layout tag reports print.
inline const char* StorageKindName(StorageKind) { return "columnar"; }

}  // namespace hierarq

#endif  // HIERARQ_DATA_STORAGE_H_
