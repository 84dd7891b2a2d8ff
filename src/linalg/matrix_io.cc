#include "linalg/matrix_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "common/crc32c.h"
#include "common/fault.h"

namespace lsi::linalg {
namespace io_internal {
namespace {

/// fsyncs the directory containing `path`, making a just-committed
/// rename durable. Without this a power cut can roll the directory
/// entry back to the old file even though the rename "succeeded".
Status SyncParentDir(const std::string& path) {
  if (LSI_FAULT_POINT("io.dirsync")) {
    return fault::InjectedFailure("io.dirsync");
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("cannot open directory for fsync: " + dir);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal("directory fsync failed: " + dir);
  return Status::OK();
}

}  // namespace

Status FileHandle::Close() {
  if (file_ == nullptr) return Status::OK();
  std::FILE* file = file_;
  file_ = nullptr;
  // The injected branch still fcloses: a real failing fclose also frees
  // the stream, so the simulation must not leak it either.
  const bool injected = LSI_FAULT_POINT("io.fclose");
  if (std::fclose(file) != 0 || injected) {
    return Status::Internal("close failed (data may not be on disk)");
  }
  return Status::OK();
}

Status Writer::WriteBytes(const void* data, std::size_t size) {
  if (LSI_FAULT_POINT("io.fwrite")) {
    return fault::InjectedFailure("io.fwrite");
  }
  if (std::fwrite(data, 1, size, file_) != size) {
    return Status::Internal("short write");
  }
  crc_ = Crc32cExtend(crc_, data, size);
  return Status::OK();
}

Status Writer::WriteU64(std::uint64_t value) {
  return WriteBytes(&value, sizeof(value));
}

Status Writer::WriteDoubles(const double* data, std::size_t count) {
  return WriteBytes(data, count * sizeof(double));
}

Status Writer::WriteString(const std::string& value) {
  LSI_RETURN_IF_ERROR(WriteU64(value.size()));
  return WriteBytes(value.data(), value.size());
}

Status Writer::EndSection() {
  // The trailer itself is excluded from the checksum; the CRC update
  // inside WriteBytes is harmless because the section just ended.
  const std::uint32_t crc = crc_;
  return WriteBytes(&crc, sizeof(crc));
}

Reader::Reader(std::FILE* file) : file_(file) {
  struct stat st;
  const long pos = std::ftell(file_);
  if (::fstat(::fileno(file_), &st) == 0 && st.st_size >= 0 && pos >= 0 &&
      static_cast<std::uint64_t>(pos) <=
          static_cast<std::uint64_t>(st.st_size)) {
    remaining_ = static_cast<std::uint64_t>(st.st_size) -
                 static_cast<std::uint64_t>(pos);
  }
}

Status Reader::ReadRaw(void* data, std::size_t size) {
  if (LSI_FAULT_POINT("io.fread")) {
    return fault::InjectedFailure("io.fread");
  }
  if (size > remaining_) {
    return Status::InvalidArgument("truncated file: read past end");
  }
  if (std::fread(data, 1, size, file_) != size) {
    return Status::InvalidArgument("short read (truncated or corrupt file)");
  }
  remaining_ -= size;
  return Status::OK();
}

Status Reader::ReadBytes(void* data, std::size_t size) {
  LSI_RETURN_IF_ERROR(ReadRaw(data, size));
  crc_ = Crc32cExtend(crc_, data, size);
  return Status::OK();
}

Result<std::uint64_t> Reader::ReadU64() {
  std::uint64_t value = 0;
  LSI_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

Status Reader::ReadDoubles(double* data, std::size_t count) {
  return ReadBytes(data, count * sizeof(double));
}

Result<std::string> Reader::ReadString(std::uint64_t max_size) {
  LSI_ASSIGN_OR_RETURN(std::uint64_t size, ReadU64());
  if (size > max_size || size > remaining_) {
    return Status::InvalidArgument("string length implausible");
  }
  std::string value(static_cast<std::size_t>(size), '\0');
  LSI_RETURN_IF_ERROR(ReadBytes(value.data(), size));
  return value;
}

Status Reader::EndSection() {
  const std::uint32_t computed = crc_;
  std::uint32_t stored = 0;
  LSI_RETURN_IF_ERROR(ReadRaw(&stored, sizeof(stored)));
  if (stored != computed) {
    return Status::InvalidArgument(
        "section checksum mismatch (file corrupt)");
  }
  return Status::OK();
}

AtomicFile::AtomicFile(const std::string& path)
    : path_(path),
      tmp_path_(path + ".tmp"),
      file_(tmp_path_, "wb"),
      writer_(file_.get()) {}

AtomicFile::~AtomicFile() {
  if (committed_) return;
  // Abandoned save: drop the stream and the half-written tmp file so a
  // failed Save leaves no debris next to the (intact) previous file.
  if (file_.get() != nullptr) {
    const Status ignored = file_.Close();
    (void)ignored;
  }
  (void)std::remove(tmp_path_.c_str());
}

Status AtomicFile::Prepare() {
  if (prepared_) return Status::OK();
  if (file_.get() == nullptr) {
    return Status::Internal("AtomicFile: tmp file is not open: " + tmp_path_);
  }
  if (LSI_FAULT_POINT("io.fflush")) {
    return fault::InjectedFailure("io.fflush");
  }
  if (std::fflush(file_.get()) != 0) {
    return Status::Internal("flush failed: " + tmp_path_);
  }
  if (LSI_FAULT_POINT("io.fsync")) {
    return fault::InjectedFailure("io.fsync");
  }
  if (::fsync(::fileno(file_.get())) != 0) {
    return Status::Internal("fsync failed: " + tmp_path_);
  }
  LSI_RETURN_IF_ERROR(file_.Close());
  prepared_ = true;
  return Status::OK();
}

Status AtomicFile::Commit() {
  LSI_RETURN_IF_ERROR(Prepare());
  if (LSI_FAULT_POINT("io.rename")) {
    return fault::InjectedFailure("io.rename");
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Status::Internal("rename failed: " + path_);
  }
  committed_ = true;
  // Past this point the new file is live; a dirsync failure means its
  // durability is unknown, not that the data is bad.
  return SyncParentDir(path_);
}

Status WriteDenseMatrixBody(Writer& writer, const DenseMatrix& matrix) {
  writer.BeginSection();
  LSI_RETURN_IF_ERROR(writer.WriteU64(matrix.rows()));
  LSI_RETURN_IF_ERROR(writer.WriteU64(matrix.cols()));
  LSI_RETURN_IF_ERROR(
      writer.WriteDoubles(matrix.data(), matrix.rows() * matrix.cols()));
  return writer.EndSection();
}

Result<DenseMatrix> ReadDenseMatrixBody(Reader& reader) {
  reader.BeginSection();
  LSI_ASSIGN_OR_RETURN(std::uint64_t rows, reader.ReadU64());
  LSI_ASSIGN_OR_RETURN(std::uint64_t cols, reader.ReadU64());
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  if (__builtin_mul_overflow(rows, cols, &count) ||
      __builtin_mul_overflow(count, sizeof(double), &bytes)) {
    return Status::InvalidArgument("dense matrix dimensions overflow");
  }
  if (bytes > reader.remaining()) {
    return Status::InvalidArgument(
        "dense matrix payload larger than the file holding it");
  }
  DenseMatrix matrix(static_cast<std::size_t>(rows),
                     static_cast<std::size_t>(cols));
  LSI_RETURN_IF_ERROR(reader.ReadDoubles(matrix.data(), count));
  LSI_RETURN_IF_ERROR(reader.EndSection());
  return matrix;
}

Status WriteDenseVectorBody(Writer& writer, const DenseVector& vector) {
  writer.BeginSection();
  LSI_RETURN_IF_ERROR(writer.WriteU64(vector.size()));
  LSI_RETURN_IF_ERROR(writer.WriteDoubles(vector.data(), vector.size()));
  return writer.EndSection();
}

Result<DenseVector> ReadDenseVectorBody(Reader& reader) {
  reader.BeginSection();
  LSI_ASSIGN_OR_RETURN(std::uint64_t size, reader.ReadU64());
  std::uint64_t bytes = 0;
  if (__builtin_mul_overflow(size, sizeof(double), &bytes)) {
    return Status::InvalidArgument("dense vector size overflows");
  }
  if (bytes > reader.remaining()) {
    return Status::InvalidArgument(
        "dense vector payload larger than the file holding it");
  }
  DenseVector vector(static_cast<std::size_t>(size));
  LSI_RETURN_IF_ERROR(reader.ReadDoubles(vector.data(), size));
  LSI_RETURN_IF_ERROR(reader.EndSection());
  return vector;
}

Status CheckMagic(Reader& reader, const char expected[4]) {
  char magic[4];
  LSI_RETURN_IF_ERROR(reader.ReadBytes(magic, 4));
  if (std::memcmp(magic, expected, 4) == 0) return Status::OK();
  if (std::memcmp(magic, expected, 3) == 0) {
    return Status::InvalidArgument(
        "unsupported format version (file predates the checksummed "
        "format); re-save with this build");
  }
  return Status::InvalidArgument("bad magic: not a matrix file of this type");
}

}  // namespace io_internal

namespace {

using io_internal::AtomicFile;
using io_internal::CheckMagic;
using io_internal::FileHandle;
using io_internal::Reader;
using io_internal::Writer;

constexpr char kDenseMagic[4] = {'L', 'D', 'M', '2'};
constexpr char kSparseMagic[4] = {'L', 'S', 'M', '2'};

}  // namespace

Status SaveDenseMatrix(const DenseMatrix& matrix, const std::string& path) {
  AtomicFile file(path);
  if (!file.ok()) {
    return Status::InvalidArgument("cannot open for write: " + path + ".tmp");
  }
  Writer& writer = file.writer();
  LSI_RETURN_IF_ERROR(writer.WriteBytes(kDenseMagic, 4));
  LSI_RETURN_IF_ERROR(io_internal::WriteDenseMatrixBody(writer, matrix));
  return file.Commit();
}

Result<DenseMatrix> LoadDenseMatrix(const std::string& path) {
  FileHandle file(path, "rb");
  if (!file.ok()) return Status::NotFound("cannot open for read: " + path);
  Reader reader(file.get());
  LSI_RETURN_IF_ERROR(CheckMagic(reader, kDenseMagic));
  return io_internal::ReadDenseMatrixBody(reader);
}

Status SaveSparseMatrix(const SparseMatrix& matrix, const std::string& path) {
  AtomicFile file(path);
  if (!file.ok()) {
    return Status::InvalidArgument("cannot open for write: " + path + ".tmp");
  }
  Writer& writer = file.writer();
  LSI_RETURN_IF_ERROR(writer.WriteBytes(kSparseMagic, 4));
  writer.BeginSection();
  LSI_RETURN_IF_ERROR(writer.WriteU64(matrix.rows()));
  LSI_RETURN_IF_ERROR(writer.WriteU64(matrix.cols()));
  LSI_RETURN_IF_ERROR(writer.WriteU64(matrix.NumNonZeros()));
  for (std::size_t offset : matrix.row_offsets()) {
    LSI_RETURN_IF_ERROR(writer.WriteU64(offset));
  }
  for (std::size_t index : matrix.col_indices()) {
    LSI_RETURN_IF_ERROR(writer.WriteU64(index));
  }
  LSI_RETURN_IF_ERROR(
      writer.WriteDoubles(matrix.values().data(), matrix.NumNonZeros()));
  LSI_RETURN_IF_ERROR(writer.EndSection());
  return file.Commit();
}

Result<SparseMatrix> LoadSparseMatrix(const std::string& path) {
  FileHandle file(path, "rb");
  if (!file.ok()) return Status::NotFound("cannot open for read: " + path);
  Reader reader(file.get());
  LSI_RETURN_IF_ERROR(CheckMagic(reader, kSparseMagic));
  reader.BeginSection();
  LSI_ASSIGN_OR_RETURN(std::uint64_t rows, reader.ReadU64());
  LSI_ASSIGN_OR_RETURN(std::uint64_t cols, reader.ReadU64());
  LSI_ASSIGN_OR_RETURN(std::uint64_t nnz, reader.ReadU64());
  // The three arrays hold rows + 1 offsets, nnz indices, and nnz values,
  // all 8 bytes wide. Overflow-check the byte counts and bound them by
  // what the file can actually contain before allocating anything.
  std::uint64_t offset_bytes = 0;
  std::uint64_t payload_bytes = 0;
  if (__builtin_mul_overflow(rows + 1, sizeof(std::uint64_t),
                             &offset_bytes) ||
      rows + 1 == 0 ||
      __builtin_mul_overflow(nnz, 2 * sizeof(std::uint64_t),
                             &payload_bytes)) {
    return Status::InvalidArgument("sparse matrix header overflows");
  }
  if (offset_bytes > reader.remaining() ||
      payload_bytes > reader.remaining()) {
    return Status::InvalidArgument(
        "sparse matrix payload larger than the file holding it");
  }
  // FromCsr adopts the arrays and rejects offsets or column indices a
  // corrupt file could carry.
  std::vector<std::size_t> offsets(rows + 1);
  for (auto& offset : offsets) {
    LSI_ASSIGN_OR_RETURN(offset, reader.ReadU64());
  }
  std::vector<std::size_t> col_indices(nnz);
  for (auto& index : col_indices) {
    LSI_ASSIGN_OR_RETURN(index, reader.ReadU64());
  }
  std::vector<double> values(nnz);
  LSI_RETURN_IF_ERROR(reader.ReadDoubles(values.data(), nnz));
  LSI_RETURN_IF_ERROR(reader.EndSection());
  return SparseMatrix::FromCsr(static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(cols),
                               std::move(offsets), std::move(col_indices),
                               std::move(values));
}

}  // namespace lsi::linalg
