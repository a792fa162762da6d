//===- pasta/TraceReader.h - Binary trace loading ---------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loads a PASTA binary trace (TraceFormat.h / docs/TRACE_FORMAT.md)
/// back into Events. The record grammar lives in one place,
/// TraceStreamDecoder; TraceReader is its file front end.
///
/// open() reads the whole file and runs it through a decoder with no
/// arena and no callback, to the end: header, every record prefix,
/// every field range and count, every payload-table reference, and the
/// required End record are checked, so corruption, truncation and
/// version mismatches fail at session *build* time with a SessionError
/// naming the file, byte offset and expected magic/version. There is no
/// partial-replay mode: a trace either validates completely or yields
/// zero events.
///
/// forEachEvent() runs a fresh decoder over the same buffer with the
/// session's EventArena. Each payload definition is interned as it is
/// read, so decoding an event costs refcount bumps on canonical
/// handles — the replay-admission fast path.
///
/// `accelprof --serve` (docs/SERVE.md) feeds the same decoder arbitrary
/// byte chunks as they arrive off a socket, with events surfaced as
/// soon as their record is complete.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_TRACEREADER_H
#define PASTA_PASTA_TRACEREADER_H

#include "pasta/EventArena.h"
#include "pasta/SessionError.h"
#include "pasta/TraceFormat.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pasta {

struct Event;
class EventArena;

/// Summary of a validated trace (available after open()).
struct TraceInfo {
  std::uint64_t Events = 0;
  std::uint64_t Strings = 0;
  std::uint64_t Stacks = 0;
  std::uint64_t Kernels = 0;
  /// KernelLaunch events seen (replay's RunStats.KernelsLaunched).
  std::uint64_t KernelLaunches = 0;
  /// Timestamps of the first/last event in stream order (0/0 when the
  /// trace holds no events) — the source of replay pacing and of the
  /// synthesized RunStats window.
  std::uint64_t FirstTimestamp = 0;
  std::uint64_t LastTimestamp = 0;
  std::uint64_t FileBytes = 0;
};

/// Validating loader for PASTA binary traces.
///
/// Not thread-safe; replay pumps events from a single thread.
class TraceReader {
public:
  TraceReader() = default;
  TraceReader(const TraceReader &) = delete;
  TraceReader &operator=(const TraceReader &) = delete;

  /// Reads and fully validates \p Path. False on any structural problem
  /// with a diagnostic naming the file and offset; the reader then
  /// holds no events.
  bool open(const std::string &Path, SessionError &Err);

  bool isOpen() const { return Loaded; }
  const std::string &path() const { return FilePath; }
  const TraceInfo &info() const { return Info; }

  /// Decodes every event in stream order and hands it to \p Fn. When
  /// \p Arena is non-null each payload definition is interned into it
  /// as it is read, so the handles each decoded event carries are
  /// canonical arena handles and per-event cost is reference-count
  /// bumps. May be called repeatedly (interning is idempotent).
  void forEachEvent(EventArena *Arena,
                    const std::function<void(Event &)> &Fn);

private:
  std::string FilePath;
  bool Loaded = false;
  TraceInfo Info;
  /// Whole-file buffer, validated by open().
  std::vector<unsigned char> Buffer;
};

/// Incremental decoder for one PASTA trace — the only implementation
/// of the record grammar. feed() accepts arbitrary byte chunks;
/// transport frame boundaries need not align with record boundaries.
/// Complete records decode straight from the caller's bytes and only
/// an incomplete trailing record is buffered. Each event is handed to
/// the callback with payload handles interned into the target arena,
/// so admission into the aggregator's tenant session costs refcount
/// bumps exactly as in file replay.
///
/// Validation: header magic, version and flags word; sequential table
/// ids; payload-reference, enum and count ranges; oversized/truncated
/// bodies; End-record count cross-check; and no trailing data after
/// End. The first violation latches the decoder failed with a
/// diagnostic naming the absolute byte offset; a failed decoder
/// ignores further feed() calls, so one malformed client cannot smear
/// partial records into a tenant session.
///
/// Not thread-safe; the owning connection feeds it from one thread.
class TraceStreamDecoder {
public:
  /// \p Arena receives interned payloads (may be null: events then
  /// carry per-decoder handles). \p ExpectedFlags is the header flags
  /// word the input must carry: trace::kFlagStreamed for a socket
  /// stream, whose records are capped at 16 MiB, or trace::HeaderFlags
  /// for a capture file. \p Source prefixes every diagnostic.
  explicit TraceStreamDecoder(
      EventArena *Arena, std::uint32_t ExpectedFlags = trace::kFlagStreamed,
      std::string Source = "trace stream");

  /// Consumes \p Size bytes, invoking \p Fn (may be empty) once per
  /// completed event. False on the first structural violation (decoder
  /// is then dead).
  bool feed(const unsigned char *Data, std::size_t Size,
            const std::function<void(Event &)> &Fn, SessionError &Err);

  /// Declares end of input: input that stops before its End record (or
  /// mid-record) is truncated.
  bool finish(SessionError &Err);

  /// True once the End record arrived and its counts cross-checked.
  bool finished() const { return SawEnd; }
  bool failed() const { return Failed; }

  /// Running totals (FileBytes counts bytes fed so far).
  const TraceInfo &info() const { return Info; }

private:
  bool fail(SessionError &Err, const std::string &Message);
  /// Decodes one complete record body. False ⇒ structural violation.
  bool decodeRecord(std::uint8_t Tag, const unsigned char *Body,
                    std::uint32_t Length, std::size_t RecordOffset,
                    const std::function<void(Event &)> &Fn,
                    SessionError &Err);
  /// Decodes every complete unit (header or record) at the front of
  /// \p Data; \p Used is set to the bytes they span.
  bool decodeUnits(const unsigned char *Data, std::size_t Size,
                   const std::function<void(Event &)> &Fn, SessionError &Err,
                   std::size_t &Used);
  /// Total size of the unit Pending starts, as far as its bytes tell.
  std::size_t pendingUnitSize() const;

  EventArena *Arena;
  std::uint32_t ExpectedFlags;
  std::string Source;
  /// The incomplete unit a chunk ended in; BaseOffset is the absolute
  /// offset of the next undecoded unit (Pending[0] when buffered).
  std::vector<unsigned char> Pending;
  std::size_t BaseOffset = 0;
  bool SawHeader = false;
  bool SawEnd = false;
  bool Failed = false;
  TraceInfo Info;
  /// Payload tables, interned into Arena at definition time.
  std::vector<PayloadString> Strings;
  std::vector<PayloadStack> Stacks;
  std::vector<std::shared_ptr<const sim::KernelDesc>> Kernels;
};

} // namespace pasta

#endif // PASTA_PASTA_TRACEREADER_H
