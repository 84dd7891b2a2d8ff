#include <cstring>

#include "common/fault.h"
#include "core/lsi_index.h"
#include "linalg/matrix_io.h"

namespace lsi::core {
namespace {

using linalg::io_internal::AtomicFile;
using linalg::io_internal::FileHandle;
using linalg::io_internal::Reader;
using linalg::io_internal::ReadDenseMatrixBody;
using linalg::io_internal::ReadDenseVectorBody;
using linalg::io_internal::WriteDenseMatrixBody;
using linalg::io_internal::WriteDenseVectorBody;
using linalg::io_internal::Writer;

constexpr char kIndexMagic[4] = {'L', 'S', 'I', 'X'};
// Version 2 added per-section CRC32C trailers and atomic-rename saves.
constexpr std::uint64_t kFormatVersion = 2;

}  // namespace

Status LsiIndex::WriteTo(Writer& writer) const {
  if (slice_) {
    return Status::FailedPrecondition(
        "LsiIndex: a slice has no file format (its floor reference and id "
        "map are not stored)");
  }
  LSI_RETURN_IF_ERROR(writer.WriteU64(kFormatVersion));
  LSI_RETURN_IF_ERROR(WriteDenseMatrixBody(writer, svd_.u));
  LSI_RETURN_IF_ERROR(WriteDenseVectorBody(writer, svd_.singular_values));
  LSI_RETURN_IF_ERROR(WriteDenseMatrixBody(writer, svd_.v));
  return WriteDenseMatrixBody(writer, document_vectors_);
}

Result<LsiIndex> LsiIndex::ReadFrom(Reader& reader) {
  LSI_ASSIGN_OR_RETURN(std::uint64_t version, reader.ReadU64());
  if (version == 1) {
    return Status::InvalidArgument(
        "LsiIndex format version 1 predates checksummed sections; rebuild "
        "the index with this build");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported LsiIndex format version");
  }
  linalg::SvdResult svd;
  LSI_ASSIGN_OR_RETURN(svd.u, ReadDenseMatrixBody(reader));
  LSI_ASSIGN_OR_RETURN(svd.singular_values, ReadDenseVectorBody(reader));
  LSI_ASSIGN_OR_RETURN(svd.v, ReadDenseMatrixBody(reader));
  LSI_ASSIGN_OR_RETURN(linalg::DenseMatrix document_vectors,
                       ReadDenseMatrixBody(reader));
  // Validate shapes before constructing.
  if (svd.rank() == 0 || svd.u.cols() != svd.rank() ||
      svd.v.cols() != svd.rank() ||
      document_vectors.cols() != svd.rank() ||
      document_vectors.rows() < svd.v.rows()) {
    return Status::InvalidArgument("LsiIndex file has inconsistent shapes");
  }
  return LsiIndex(std::move(svd), std::move(document_vectors));
}

Status LsiIndex::Save(const std::string& path) const {
  if (LSI_FAULT_POINT("core.index.save")) {
    return fault::InjectedFailure("core.index.save");
  }
  AtomicFile file(path);
  if (!file.ok()) {
    return Status::InvalidArgument("cannot open for write: " + path + ".tmp");
  }
  Writer& writer = file.writer();
  LSI_RETURN_IF_ERROR(writer.WriteBytes(kIndexMagic, 4));
  LSI_RETURN_IF_ERROR(WriteTo(writer));
  return file.Commit();
}

Result<LsiIndex> LsiIndex::Load(const std::string& path) {
  if (LSI_FAULT_POINT("core.index.load")) {
    return fault::InjectedFailure("core.index.load");
  }
  FileHandle file(path, "rb");
  if (!file.ok()) return Status::NotFound("cannot open for read: " + path);
  Reader reader(file.get());
  char magic[4];
  LSI_RETURN_IF_ERROR(reader.ReadBytes(magic, 4));
  if (std::memcmp(magic, kIndexMagic, 4) != 0) {
    return Status::InvalidArgument("not an LsiIndex file: " + path);
  }
  return ReadFrom(reader);
}

}  // namespace lsi::core
