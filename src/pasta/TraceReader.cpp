//===- pasta/TraceReader.cpp ----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/TraceReader.h"

#include "pasta/Events.h"
#include "pasta/TraceFormat.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

using namespace pasta;
using namespace pasta::trace;

namespace {

std::string hex32(std::uint32_t Value) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "0x%x", Value);
  return Buf;
}

/// Decoded event-record fields before payload resolution. Ids are table
/// references (0 = absent); validity against the tables is checked by
/// the caller, which knows the current table sizes.
struct RawEvent {
  std::uint8_t Kind = 0;
  std::uint8_t Vendor = 0;
  std::int32_t DeviceIndex = 0;
  std::uint32_t Stream = 0;
  std::uint64_t Timestamp = 0;
  std::uint64_t Address = 0;
  std::uint64_t Bytes = 0;
  std::uint8_t Managed = 0;
  std::uint8_t Direction = 0;
  std::uint64_t GridId = 0;
  std::uint32_t KernelId = 0;
  std::uint64_t PoolAllocated = 0;
  std::uint64_t PoolReserved = 0;
  std::uint32_t OpNameId = 0;
  std::uint32_t LayerNameId = 0;
  std::uint8_t Phase = 0;
  std::uint32_t StackId = 0;
  bool HasTensor = false;
  dl::TensorInfo Tensor;
};

/// Parses one event-record body. Returns false (with \p Problem set) on
/// any structural or range violation; the caller prefixes file/offset.
bool parseEventBody(ByteReader &Cursor, RawEvent &Raw, std::string &Problem) {
  std::uint8_t HasTensor = 0;
  if (!Cursor.readU8(Raw.Kind) || !Cursor.readU8(Raw.Vendor) ||
      !Cursor.readI32(Raw.DeviceIndex) || !Cursor.readU32(Raw.Stream) ||
      !Cursor.readU64(Raw.Timestamp) || !Cursor.readU64(Raw.Address) ||
      !Cursor.readU64(Raw.Bytes) || !Cursor.readU8(Raw.Managed) ||
      !Cursor.readU8(Raw.Direction) || !Cursor.readU64(Raw.GridId) ||
      !Cursor.readU32(Raw.KernelId) || !Cursor.readU64(Raw.PoolAllocated) ||
      !Cursor.readU64(Raw.PoolReserved) || !Cursor.readU32(Raw.OpNameId) ||
      !Cursor.readU32(Raw.LayerNameId) || !Cursor.readU8(Raw.Phase) ||
      !Cursor.readU32(Raw.StackId) || !Cursor.readU8(HasTensor)) {
    Problem = "event record body shorter than its fixed fields";
    return false;
  }
  if (Raw.Kind >= NumEventKinds) {
    Problem = "invalid event kind " + std::to_string(Raw.Kind);
    return false;
  }
  if (Raw.Vendor > 1) {
    Problem = "invalid vendor " + std::to_string(Raw.Vendor);
    return false;
  }
  if (Raw.Managed > 1) {
    Problem = "invalid managed flag " + std::to_string(Raw.Managed);
    return false;
  }
  if (Raw.Direction > 2) {
    Problem = "invalid copy direction " + std::to_string(Raw.Direction);
    return false;
  }
  if (Raw.Phase > 2) {
    Problem = "invalid exec phase " + std::to_string(Raw.Phase);
    return false;
  }
  if (HasTensor > 1) {
    Problem = "invalid tensor flag " + std::to_string(HasTensor);
    return false;
  }
  Raw.HasTensor = HasTensor == 1;
  if (Raw.HasTensor) {
    std::uint64_t Id = 0;
    std::string Name;
    std::uint32_t Rank = 0;
    if (!Cursor.readU64(Id) || !Cursor.readString(Name) ||
        !Cursor.readU32(Rank)) {
      Problem = "truncated tensor descriptor";
      return false;
    }
    // Each dimension is an i64 and the body is bounded by its record.
    if (Rank > Cursor.remaining() / 8) {
      Problem = "tensor rank " + std::to_string(Rank) +
                " exceeds the remaining body bytes";
      return false;
    }
    std::vector<std::int64_t> Dims;
    Dims.reserve(Rank);
    for (std::uint32_t I = 0; I < Rank; ++I) {
      std::int64_t Dim = 0;
      if (!Cursor.readI64(Dim)) {
        Problem = "truncated tensor shape";
        return false;
      }
      if (Dim < 0) {
        Problem = "negative tensor dimension " + std::to_string(Dim);
        return false;
      }
      Dims.push_back(Dim);
    }
    std::uint8_t Type = 0;
    std::uint8_t Role = 0;
    std::uint64_t Address = 0;
    std::int32_t DeviceIndex = 0;
    if (!Cursor.readU8(Type) || !Cursor.readU8(Role) ||
        !Cursor.readU64(Address) || !Cursor.readI32(DeviceIndex)) {
      Problem = "truncated tensor descriptor";
      return false;
    }
    if (Type > 2) {
      Problem = "invalid tensor data type " + std::to_string(Type);
      return false;
    }
    if (Role > 5) {
      Problem = "invalid tensor role " + std::to_string(Role);
      return false;
    }
    Raw.Tensor.Id = Id;
    Raw.Tensor.Name = std::move(Name);
    Raw.Tensor.Shape = dl::TensorShape(std::move(Dims));
    Raw.Tensor.Type = static_cast<dl::DataType>(Type);
    Raw.Tensor.Role = static_cast<dl::TensorRole>(Role);
    Raw.Tensor.Address = Address;
    Raw.Tensor.DeviceIndex = DeviceIndex;
  }
  if (!Cursor.atEnd()) {
    Problem = "event record body longer than its fields";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Record-body decoders. Each returns "" on success, otherwise a complete
// diagnostic naming \p RecordOffset. Every count read from a body is
// bounded by the bytes left in it before anything is reserved, so a
// hostile count fails here instead of allocating for it.
//===----------------------------------------------------------------------===//

std::string decodeStringDef(const unsigned char *Body, std::uint32_t Length,
                            std::size_t NextId, std::size_t RecordOffset,
                            std::string &Content) {
  ByteReader Cursor(Body, Length);
  std::uint32_t Id = 0;
  if (!Cursor.readU32(Id))
    return "truncated string definition at offset " +
           std::to_string(RecordOffset);
  if (Id != NextId)
    return "non-sequential string id " + std::to_string(Id) + " at offset " +
           std::to_string(RecordOffset) + ": expected " +
           std::to_string(NextId);
  Content.assign(reinterpret_cast<const char *>(Body) + 4, Length - 4);
  return std::string();
}

std::string decodeStackDef(const unsigned char *Body, std::uint32_t Length,
                           std::size_t NextId, std::size_t RecordOffset,
                           PayloadStack::FrameList &Frames) {
  ByteReader Cursor(Body, Length);
  std::uint32_t Id = 0;
  std::uint32_t FrameCount = 0;
  if (!Cursor.readU32(Id) || !Cursor.readU32(FrameCount))
    return "truncated stack definition at offset " +
           std::to_string(RecordOffset);
  if (Id != NextId)
    return "non-sequential stack id " + std::to_string(Id) + " at offset " +
           std::to_string(RecordOffset) + ": expected " +
           std::to_string(NextId);
  // Each frame is at least its u32 length prefix.
  if (FrameCount > Cursor.remaining() / 4)
    return "stack frame count " + std::to_string(FrameCount) +
           " exceeds the body of the stack definition at offset " +
           std::to_string(RecordOffset);
  Frames.reserve(FrameCount);
  for (std::uint32_t I = 0; I < FrameCount; ++I) {
    std::string Frame;
    if (!Cursor.readString(Frame))
      return "truncated stack definition at offset " +
             std::to_string(RecordOffset);
    Frames.push_back(std::move(Frame));
  }
  if (!Cursor.atEnd())
    return "oversized stack definition at offset " +
           std::to_string(RecordOffset);
  return std::string();
}

std::string decodeKernelDef(const unsigned char *Body, std::uint32_t Length,
                            std::size_t NextId, std::size_t RecordOffset,
                            sim::KernelDesc &Kernel) {
  ByteReader Cursor(Body, Length);
  std::uint32_t Id = 0;
  if (!Cursor.readU32(Id))
    return "truncated kernel definition at offset " +
           std::to_string(RecordOffset);
  if (Id != NextId)
    return "non-sequential kernel id " + std::to_string(Id) + " at offset " +
           std::to_string(RecordOffset) + ": expected " +
           std::to_string(NextId);
  std::uint32_t SegmentCount = 0;
  bool Ok = Cursor.readString(Kernel.Name) && Cursor.readU32(Kernel.Grid.X) &&
            Cursor.readU32(Kernel.Grid.Y) && Cursor.readU32(Kernel.Grid.Z) &&
            Cursor.readU32(Kernel.Block.X) && Cursor.readU32(Kernel.Block.Y) &&
            Cursor.readU32(Kernel.Block.Z) && Cursor.readF64(Kernel.Flops) &&
            Cursor.readF64(Kernel.ComputeInstrsPerAccess) &&
            Cursor.readU64(Kernel.StaticInstrs) &&
            Cursor.readU32(Kernel.BarriersPerBlock) &&
            Cursor.readU64(Kernel.SharedMemPerBlock) &&
            Cursor.readU32(SegmentCount);
  // Each segment is three u64 and two u8 fields.
  constexpr std::size_t SegmentBytes = 26;
  if (Ok && SegmentCount > Cursor.remaining() / SegmentBytes)
    return "access segment count " + std::to_string(SegmentCount) +
           " exceeds the body of the kernel definition at offset " +
           std::to_string(RecordOffset);
  if (Ok) {
    Kernel.Segments.reserve(SegmentCount);
    for (std::uint32_t I = 0; Ok && I < SegmentCount; ++I) {
      sim::AccessSegment Seg;
      std::uint8_t Kind = 0;
      std::uint8_t Space = 0;
      Ok = Cursor.readU64(Seg.Base) && Cursor.readU64(Seg.Extent) &&
           Cursor.readU64(Seg.AccessBytes) && Cursor.readU8(Kind) &&
           Cursor.readU8(Space);
      if (Ok && (Kind > 1 || Space > 1))
        return "invalid access segment in kernel definition at offset " +
               std::to_string(RecordOffset);
      Seg.Kind = static_cast<sim::AccessKind>(Kind);
      Seg.Space = static_cast<sim::MemSpace>(Space);
      Kernel.Segments.push_back(Seg);
    }
  }
  if (!Ok || !Cursor.atEnd())
    return "malformed kernel definition at offset " +
           std::to_string(RecordOffset);
  return std::string();
}

/// Declared table sizes from the End record.
struct EndCounts {
  std::uint64_t Events = 0;
  std::uint32_t Strings = 0;
  std::uint32_t Stacks = 0;
  std::uint32_t Kernels = 0;
};

std::string decodeEndBody(const unsigned char *Body, std::uint32_t Length,
                          std::size_t RecordOffset, EndCounts &Counts) {
  ByteReader Cursor(Body, Length);
  if (!Cursor.readU64(Counts.Events) || !Cursor.readU32(Counts.Strings) ||
      !Cursor.readU32(Counts.Stacks) || !Cursor.readU32(Counts.Kernels) ||
      !Cursor.atEnd())
    return "malformed end-of-trace record at offset " +
           std::to_string(RecordOffset);
  return std::string();
}

std::string endCountMismatch(const EndCounts &Counts, std::size_t Events,
                             std::size_t Strings, std::size_t Stacks,
                             std::size_t Kernels) {
  return "end-of-trace record declares " + std::to_string(Counts.Events) +
         " events / " + std::to_string(Counts.Strings) + " strings / " +
         std::to_string(Counts.Stacks) + " stacks / " +
         std::to_string(Counts.Kernels) + " kernels, but " +
         std::to_string(Events) + " / " + std::to_string(Strings) + " / " +
         std::to_string(Stacks) + " / " + std::to_string(Kernels) +
         " were read";
}

std::string checkEventRefs(const RawEvent &Raw, std::size_t NumStrings,
                           std::size_t NumStacks, std::size_t NumKernels,
                           std::size_t RecordOffset) {
  if (Raw.KernelId > NumKernels)
    return "event at offset " + std::to_string(RecordOffset) +
           " references unknown kernel id " + std::to_string(Raw.KernelId);
  if (Raw.OpNameId > NumStrings || Raw.LayerNameId > NumStrings)
    return "event at offset " + std::to_string(RecordOffset) +
           " references unknown string id " +
           std::to_string(Raw.OpNameId > NumStrings ? Raw.OpNameId
                                                    : Raw.LayerNameId);
  if (Raw.StackId > NumStacks)
    return "event at offset " + std::to_string(RecordOffset) +
           " references unknown stack id " + std::to_string(Raw.StackId);
  return std::string();
}

/// Resolves a validated RawEvent against the payload tables. The
/// handles the tables hold are what the event carries — canonical
/// arena handles when the tables were interned.
Event materializeEvent(
    const RawEvent &Raw, const std::vector<PayloadString> &Strings,
    const std::vector<PayloadStack> &Stacks,
    const std::vector<std::shared_ptr<const sim::KernelDesc>> &Kernels) {
  Event E;
  E.Kind = static_cast<EventKind>(Raw.Kind);
  E.Vendor = static_cast<sim::VendorKind>(Raw.Vendor);
  E.DeviceIndex = Raw.DeviceIndex;
  E.Stream = Raw.Stream;
  E.Timestamp = Raw.Timestamp;
  E.Address = Raw.Address;
  E.Bytes = Raw.Bytes;
  E.Managed = Raw.Managed == 1;
  E.Direction = static_cast<CopyDirection>(Raw.Direction);
  E.GridId = Raw.GridId;
  E.PoolAllocated = Raw.PoolAllocated;
  E.PoolReserved = Raw.PoolReserved;
  E.Phase = static_cast<dl::ExecPhase>(Raw.Phase);
  if (Raw.KernelId)
    E.adoptKernel(Kernels[Raw.KernelId - 1]);
  if (Raw.OpNameId)
    E.OpName = Strings[Raw.OpNameId - 1];
  if (Raw.LayerNameId)
    E.LayerName = Strings[Raw.LayerNameId - 1];
  if (Raw.StackId)
    E.PythonStack = Stacks[Raw.StackId - 1];
  if (Raw.HasTensor)
    E.adoptTensor(EventArena::pinTensor(Raw.Tensor));
  return E;
}

/// Streams buffer whole records only up to this size; a hostile length
/// prefix must not make the aggregator buffer gigabytes for one
/// client. Capture files have no such cap (they are bounded by file
/// size up front).
constexpr std::uint32_t MaxStreamRecordBytes = 1u << 24;

/// Checks the 16-byte header against the flags word the input must
/// carry. Returns "" when it is acceptable.
std::string headerProblem(const unsigned char *Head,
                          std::uint32_t ExpectedFlags) {
  if (std::memcmp(Head, Magic, sizeof(Magic)) != 0)
    return "bad magic at offset 0: expected \"PASTATRC\"";
  ByteReader Header(Head + sizeof(Magic), HeaderSize - sizeof(Magic));
  std::uint32_t HeadVersion = 0;
  std::uint32_t Flags = 0;
  Header.readU32(HeadVersion);
  Header.readU32(Flags);
  if (HeadVersion != Version)
    return "unsupported version " + std::to_string(HeadVersion) +
           " at offset 8: expected version " + std::to_string(Version);
  if ((Flags & ~KnownHeaderFlags) != 0)
    return "unknown header flags " + hex32(Flags & ~KnownHeaderFlags) +
           " at offset 12: this build knows " + hex32(KnownHeaderFlags);
  if (Flags == ExpectedFlags)
    return std::string();
  if ((Flags & kFlagStreamed) != 0)
    return "streamed header flags " + hex32(Flags) +
           " at offset 12: this is a socket-stream dump, not a capture file "
           "(feed it to accelprof --serve)";
  return "capture-file header flags " + hex32(Flags) +
         " at offset 12: this is a capture file, not a socket stream "
         "(replay it with accelprof -b replay --trace)";
}

std::string filePrefix(const std::string &Path) {
  return "trace file '" + Path + "'";
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceReader
//===----------------------------------------------------------------------===//

bool TraceReader::open(const std::string &Path, SessionError &Err) {
  FilePath = Path;
  Loaded = false;
  Info = TraceInfo();
  Buffer.clear();
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In) {
    Err.assign("cannot open " + filePrefix(Path) + ": " +
               std::strerror(errno));
    return false;
  }
  unsigned char Chunk[1 << 16];
  std::size_t Got = 0;
  while ((Got = std::fread(Chunk, 1, sizeof(Chunk), In)) > 0)
    Buffer.insert(Buffer.end(), Chunk, Chunk + Got);
  bool ReadOk = std::ferror(In) == 0;
  std::fclose(In);
  if (!ReadOk) {
    Err.assign(filePrefix(Path) + ": read error");
    Buffer.clear();
    return false;
  }

  // Validate every record before a single event is replayed: a decoder
  // with no arena and no callback, run to the end of the file.
  TraceStreamDecoder Check(nullptr, HeaderFlags, filePrefix(Path));
  if (!Check.feed(Buffer.data(), Buffer.size(), nullptr, Err) ||
      !Check.finish(Err)) {
    Buffer.clear();
    return false;
  }
  Info = Check.info();
  Loaded = true;
  return true;
}

void TraceReader::forEachEvent(EventArena *Arena,
                               const std::function<void(Event &)> &Fn) {
  if (!Loaded)
    return;
  // open() validated the buffer, so this pass cannot fail.
  TraceStreamDecoder Decoder(Arena, HeaderFlags, filePrefix(FilePath));
  SessionError Err;
  Decoder.feed(Buffer.data(), Buffer.size(), Fn, Err);
}

//===----------------------------------------------------------------------===//
// TraceStreamDecoder
//===----------------------------------------------------------------------===//

TraceStreamDecoder::TraceStreamDecoder(EventArena *Arena,
                                       std::uint32_t ExpectedFlags,
                                       std::string Source)
    : Arena(Arena), ExpectedFlags(ExpectedFlags), Source(std::move(Source)) {}

bool TraceStreamDecoder::fail(SessionError &Err, const std::string &Message) {
  Failed = true;
  Err.assign(Source + ": " + Message);
  return false;
}

bool TraceStreamDecoder::decodeRecord(std::uint8_t Tag,
                                      const unsigned char *Body,
                                      std::uint32_t Length,
                                      std::size_t RecordOffset,
                                      const std::function<void(Event &)> &Fn,
                                      SessionError &Err) {
  switch (static_cast<RecordTag>(Tag)) {
  case RecordTag::StringDef: {
    std::string Content;
    std::string Problem = decodeStringDef(Body, Length, Strings.size() + 1,
                                          RecordOffset, Content);
    if (!Problem.empty())
      return fail(Err, Problem);
    PayloadString Payload(std::move(Content));
    if (Arena)
      Payload = Arena->internString(Payload);
    Strings.push_back(std::move(Payload));
    ++Info.Strings;
    return true;
  }
  case RecordTag::StackDef: {
    PayloadStack::FrameList Frames;
    std::string Problem = decodeStackDef(Body, Length, Stacks.size() + 1,
                                         RecordOffset, Frames);
    if (!Problem.empty())
      return fail(Err, Problem);
    PayloadStack Payload(std::move(Frames));
    if (Arena)
      Payload = Arena->internStack(Payload);
    Stacks.push_back(std::move(Payload));
    ++Info.Stacks;
    return true;
  }
  case RecordTag::KernelDef: {
    auto Kernel = std::make_shared<sim::KernelDesc>();
    std::string Problem = decodeKernelDef(Body, Length, Kernels.size() + 1,
                                          RecordOffset, *Kernel);
    if (!Problem.empty())
      return fail(Err, Problem);
    std::shared_ptr<const sim::KernelDesc> Handle = std::move(Kernel);
    if (Arena)
      Handle = Arena->internKernel(*Handle);
    Kernels.push_back(std::move(Handle));
    ++Info.Kernels;
    return true;
  }
  case RecordTag::EventRecord: {
    ByteReader Cursor(Body, Length);
    RawEvent Raw;
    std::string Problem;
    if (!parseEventBody(Cursor, Raw, Problem))
      return fail(Err, Problem + " in event record at offset " +
                           std::to_string(RecordOffset));
    Problem = checkEventRefs(Raw, Strings.size(), Stacks.size(),
                             Kernels.size(), RecordOffset);
    if (!Problem.empty())
      return fail(Err, Problem);
    if (Info.Events == 0)
      Info.FirstTimestamp = Raw.Timestamp;
    Info.LastTimestamp = Raw.Timestamp;
    if (static_cast<EventKind>(Raw.Kind) == EventKind::KernelLaunch)
      ++Info.KernelLaunches;
    ++Info.Events;
    if (Fn) {
      Event E = materializeEvent(Raw, Strings, Stacks, Kernels);
      Fn(E);
    }
    return true;
  }
  case RecordTag::End: {
    EndCounts Counts;
    std::string Problem = decodeEndBody(Body, Length, RecordOffset, Counts);
    if (!Problem.empty())
      return fail(Err, Problem);
    if (Counts.Events != Info.Events || Counts.Strings != Strings.size() ||
        Counts.Stacks != Stacks.size() || Counts.Kernels != Kernels.size())
      return fail(Err, endCountMismatch(Counts, Info.Events, Strings.size(),
                                        Stacks.size(), Kernels.size()));
    SawEnd = true;
    return true;
  }
  default:
    // Unknown tags are skippable by construction (length-prefixed) —
    // the in-version forward-compat rule. A corrupted tag cannot hide
    // an event: the End record's counts cross-check the tables.
    return true;
  }
}

bool TraceStreamDecoder::decodeUnits(const unsigned char *Data,
                                     std::size_t Size,
                                     const std::function<void(Event &)> &Fn,
                                     SessionError &Err, std::size_t &Used) {
  Used = 0;
  while (true) {
    const unsigned char *Unit = Data + Used;
    std::size_t Avail = Size - Used;
    if (SawEnd && Avail > 0)
      return fail(Err, "trailing data after end-of-trace record at offset " +
                           std::to_string(BaseOffset));
    std::size_t UnitSize = HeaderSize;
    if (!SawHeader) {
      if (Avail < HeaderSize)
        return true;
      std::string Problem = headerProblem(Unit, ExpectedFlags);
      if (!Problem.empty())
        return fail(Err, Problem);
      SawHeader = true;
    } else {
      if (Avail < RecordPrefixSize)
        return true;
      ByteReader Prefix(Unit, RecordPrefixSize);
      std::uint8_t Tag = 0;
      std::uint32_t Length = 0;
      Prefix.readU8(Tag);
      Prefix.readU32(Length);
      if (ExpectedFlags == kFlagStreamed && Length > MaxStreamRecordBytes)
        return fail(Err, "oversized record (" + std::to_string(Length) +
                             " bytes) at offset " + std::to_string(BaseOffset));
      UnitSize = RecordPrefixSize + Length;
      if (Avail < UnitSize)
        return true;
      if (!decodeRecord(Tag, Unit + RecordPrefixSize, Length, BaseOffset, Fn,
                        Err))
        return false;
    }
    Used += UnitSize;
    BaseOffset += UnitSize;
  }
}

std::size_t TraceStreamDecoder::pendingUnitSize() const {
  if (!SawHeader)
    return HeaderSize;
  if (Pending.size() < RecordPrefixSize)
    return RecordPrefixSize;
  ByteReader Prefix(Pending.data() + 1, RecordPrefixSize - 1);
  std::uint32_t Length = 0;
  Prefix.readU32(Length);
  return RecordPrefixSize + Length;
}

bool TraceStreamDecoder::feed(const unsigned char *Data, std::size_t Size,
                              const std::function<void(Event &)> &Fn,
                              SessionError &Err) {
  if (Failed) {
    Err.assign(Source + ": decoder already failed");
    return false;
  }
  Info.FileBytes += Size;
  std::size_t Used = 0;
  // An earlier chunk ended inside a unit: top Pending up to that unit's
  // size (first its record prefix, then its body) and decode it there.
  while (!Pending.empty() && Size > 0) {
    std::size_t Take = std::min(Size, pendingUnitSize() - Pending.size());
    Pending.insert(Pending.end(), Data, Data + Take);
    Data += Take;
    Size -= Take;
    if (!decodeUnits(Pending.data(), Pending.size(), Fn, Err, Used))
      return false;
    if (Used == Pending.size())
      Pending.clear();
  }
  // Complete units decode straight from the caller's bytes; only an
  // incomplete trailing unit is copied.
  if (!decodeUnits(Data, Size, Fn, Err, Used))
    return false;
  Pending.insert(Pending.end(), Data + Used, Data + Size);
  return true;
}

bool TraceStreamDecoder::finish(SessionError &Err) {
  if (Failed) {
    Err.assign(Source + ": decoder already failed");
    return false;
  }
  if (SawEnd)
    return true;
  std::string Problem =
      !SawHeader ? "truncated header: " + std::to_string(Pending.size()) +
                       " bytes, expected at least " +
                       std::to_string(HeaderSize) +
                       " (magic \"PASTATRC\" + version + flags)"
      : !Pending.empty()
          ? "truncated record at offset " + std::to_string(BaseOffset)
          : std::string("missing end-of-trace record");
  if (ExpectedFlags == kFlagStreamed)
    Problem += " (truncated stream: connection closed at offset " +
               std::to_string(BaseOffset + Pending.size()) + ")";
  return fail(Err, Problem);
}
