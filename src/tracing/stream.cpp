#include "tracing/stream.hpp"

#include <algorithm>

#include "common/binary_io.hpp"
#include "common/error.hpp"

namespace metascope::tracing {

namespace {

// Mirrors the batch reader's constants (tracing/epilog_io.cpp).
constexpr std::uint32_t kTraceMagic = 0x5453434DU;  // "MCST"
constexpr std::size_t kMinSyncRecordBytesV3 = 1;
constexpr std::size_t kMinEventBytesV3 = 1;
constexpr std::size_t kNumEventTypes = 5;
constexpr std::size_t kScanChunk = 4096;

/// Frame helpers, identical to the batch reader's begin/end_column.
std::size_t begin_column(Decoder& d, const char* what) {
  const std::uint64_t len = d.get_varint();
  if (len > d.remaining())
    d.fail(ErrorCode::Truncated,
           std::string("truncated ") + what + " column: frame declares " +
               std::to_string(len) + " bytes but only " +
               std::to_string(d.remaining()) + " remain");
  return d.pos() + static_cast<std::size_t>(len);
}

void end_column(const Decoder& d, const char* what, std::size_t end) {
  if (d.pos() != end)
    d.fail(ErrorCode::Corrupt,
           std::string("column length mismatch for ") + what +
               " column: codec consumed through byte " +
               std::to_string(d.pos()) + " but the frame ends at byte " +
               std::to_string(end));
}

void get_int_column(Decoder& d, std::vector<std::int64_t>& out,
                    std::size_t n, const char* what) {
  out.resize(n);
  if (n == 0) return;
  const std::size_t end = begin_column(d, what);
  colcodec::decode_int_column(d, out.data(), n);
  end_column(d, what, end);
}

void get_double_column(Decoder& d, std::vector<double>& out, std::size_t n,
                       const char* what) {
  out.resize(n);
  if (n == 0) return;
  const std::size_t end = begin_column(d, what);
  colcodec::decode_double_column(d, out.data(), n);
  end_column(d, what, end);
}

}  // namespace

void TraceStream::rethrow(const Error& e, std::size_t events_done) const {
  if (e.code() != ErrorCode::Truncated) throw e;
  throw Error(ErrorCode::Truncated,
              "truncated trace file for rank " + std::to_string(rank_) +
                  ": payload ends after " + std::to_string(events_done) +
                  " of " + std::to_string(nev_) + " events (" +
                  e.base_message() + ")",
              e.context());
}

ErrorContext TraceStream::cursor_context(const Col& c) const {
  // A cursor decodes from the column's first byte; its errors report
  // offsets into the file, like the batch decoder's.
  return ErrorContext{path_, rank_,
                      static_cast<std::int64_t>(base_ + c.start)};
}

colcodec::IntColumnCursor TraceStream::int_cursor(const Col& c,
                                                  const char* what) const {
  return colcodec::IntColumnCursor(data_ + c.start, size_ - c.start, c.len,
                                   c.n, what, cursor_context(c));
}

colcodec::DoubleColumnCursor TraceStream::double_cursor(
    const Col& c, const char* what) const {
  return colcodec::DoubleColumnCursor(data_ + c.start, size_ - c.start,
                                      c.len, c.n, what, cursor_context(c));
}

TraceStream::TraceStream(const std::uint8_t* data, std::size_t size,
                         std::string path, std::uint64_t base)
    : data_(data), size_(size), base_(base), path_(std::move(path)) {
  Decoder d(data_, size_,
            ErrorContext{path_, -1, static_cast<std::int64_t>(base_)});
  d.expect_magic(kTraceMagic, "trace file");
  // Streaming is a v3-only feature: the columnar layout is what makes a
  // windowed read possible at all.
  d.expect_version_in(kTraceFormatVersion, kTraceFormatVersion,
                      "streamed trace file");
  std::uint64_t nsync = 0;
  try {
    const std::int64_t rank = d.get_svarint();
    if (rank < -1 || rank > static_cast<std::int64_t>(kMaxRanksPerArchive))
      d.fail(ErrorCode::Corrupt,
             "implausible rank id " + std::to_string(rank));
    rank_ = static_cast<Rank>(rank);
    d.set_rank(static_cast<int>(rank));

    nsync = d.get_count("sync records", kMinSyncRecordBytesV3);
    nev_ = d.get_count("events", kMinEventBytesV3);
    std::uint64_t sum = 0;
    for (std::size_t ty = 0; ty < kNumEventTypes; ++ty) {
      counts_[ty] = d.get_varint();
      sum += counts_[ty];
    }
    if (sum != nev_)
      d.fail(ErrorCode::Corrupt,
             "per-type event counts sum to " + std::to_string(sum) +
                 " but the header declares " + std::to_string(nev_) +
                 " events");

    // Sync records are tiny (a handful per rank) — decode them eagerly.
    {
      const auto n = static_cast<std::size_t>(nsync);
      std::vector<std::int64_t> phase, ref_rank;
      std::vector<double> local_mid, offset, error_bound;
      get_int_column(d, phase, n, "sync.phase");
      get_int_column(d, ref_rank, n, "sync.ref_rank");
      get_double_column(d, local_mid, n, "sync.local_mid");
      get_double_column(d, offset, n, "sync.offset");
      get_double_column(d, error_bound, n, "sync.error_bound");
      sync_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        OffsetRecord& s = sync_[i];
        s.phase = static_cast<int>(phase[i]);
        s.ref_rank = static_cast<Rank>(ref_rank[i]);
        s.local_mid = local_mid[i];
        s.offset = offset[i];
        s.error_bound = error_bound[i];
      }
    }

    // Validate the whole type stream up front: it is the per-event
    // decode schedule, so a bad nibble anywhere must surface before any
    // window is trusted. Same checks and wording as the batch reader.
    const std::size_t nbytes = static_cast<std::size_t>((nev_ + 1) / 2);
    nibbles_ = d.get_raw(nbytes, "event type stream");
    std::array<std::uint64_t, kNumEventTypes> seen{};
    for (std::uint64_t i = 0; i < nev_; ++i) {
      const std::uint8_t ty = type_at(static_cast<std::size_t>(i));
      if (ty >= kNumEventTypes)
        d.fail(ErrorCode::Corrupt,
               "corrupt trace: unknown event type " +
                   std::to_string(static_cast<int>(ty)) +
                   " in type stream at event " + std::to_string(i));
      ++seen[ty];
    }
    if (nev_ % 2 != 0 && (nibbles_[nbytes - 1] >> 4) != 0)
      d.fail(ErrorCode::Corrupt,
             "corrupt trace: nonzero padding nibble in type stream");
    for (std::size_t ty = 0; ty < kNumEventTypes; ++ty)
      if (seen[ty] != counts_[ty])
        d.fail(ErrorCode::Corrupt,
               "corrupt trace: type stream has " + std::to_string(seen[ty]) +
                   " events of type " + std::to_string(ty) +
                   " but the header declares " + std::to_string(counts_[ty]));

    // Walk the column frames without decoding their payloads: record
    // where each column lives, bounds-check every frame against the
    // file, and require the last one to end exactly at the file's end.
    const auto n_enter = static_cast<std::size_t>(counts_[0]);
    const auto n_send = static_cast<std::size_t>(counts_[2]);
    const auto n_recv = static_cast<std::size_t>(counts_[3]);
    const auto n_coll = static_cast<std::size_t>(counts_[4]);
    const auto walk = [&](Col& col, std::size_t n, const char* what) {
      col.n = n;
      if (n == 0) return;
      const std::size_t end = begin_column(d, what);
      col.start = d.pos();
      col.len = end - col.start;
      (void)d.get_raw(col.len, what);
    };
    walk(time_, static_cast<std::size_t>(nev_), "time");
    walk(enter_region_, n_enter, "enter.region");
    walk(send_peer_, n_send, "send.peer");
    walk(send_tag_, n_send, "send.tag");
    walk(send_bytes_, n_send, "send.bytes");
    walk(send_comm_, n_send, "send.comm");
    walk(recv_peer_, n_recv, "recv.peer");
    walk(recv_tag_, n_recv, "recv.tag");
    walk(recv_bytes_, n_recv, "recv.bytes");
    walk(recv_comm_, n_recv, "recv.comm");
    walk(coll_region_, n_coll, "collexit.region");
    walk(coll_comm_, n_coll, "collexit.comm");
    walk(coll_root_, n_coll, "collexit.root");
    walk(coll_bytes_, n_coll, "collexit.bytes");
    walk(coll_sent_, n_coll, "collexit.sent");
    walk(coll_recvd_, n_coll, "collexit.recvd");
    d.require_end("trace file");

    // Window cursors. Construction reads each column's mode header (and
    // for residual-mode double columns, skip-scans to the residual
    // stream), so malformed codec headers surface now, with the same
    // codes the batch reader raises mid-decode.
    if (time_.n != 0) c_time_ = double_cursor(time_, "time");
    if (n_enter != 0)
      c_enter_region_ = int_cursor(enter_region_, "enter.region");
    if (n_send != 0) {
      c_send_peer_ = int_cursor(send_peer_, "send.peer");
      c_send_tag_ = int_cursor(send_tag_, "send.tag");
      c_send_bytes_ = double_cursor(send_bytes_, "send.bytes");
      c_send_comm_ = int_cursor(send_comm_, "send.comm");
    }
    if (n_recv != 0) {
      c_recv_peer_ = int_cursor(recv_peer_, "recv.peer");
      c_recv_tag_ = int_cursor(recv_tag_, "recv.tag");
      c_recv_bytes_ = double_cursor(recv_bytes_, "recv.bytes");
      c_recv_comm_ = int_cursor(recv_comm_, "recv.comm");
    }
    if (n_coll != 0) {
      c_coll_region_ = int_cursor(coll_region_, "collexit.region");
      c_coll_comm_ = int_cursor(coll_comm_, "collexit.comm");
      c_coll_root_ = int_cursor(coll_root_, "collexit.root");
      c_coll_bytes_ = double_cursor(coll_bytes_, "collexit.bytes");
      c_coll_sent_ = double_cursor(coll_sent_, "collexit.sent");
      c_coll_recvd_ = double_cursor(coll_recvd_, "collexit.recvd");
    }
  } catch (const Error& e) {
    rethrow(e, 0);
  }
}

void TraceStream::scan_light(
    const std::function<void(const LightEvent&)>& cb) const {
  auto time = double_cursor(time_, "time");
  auto enter_region = int_cursor(enter_region_, "enter.region");
  auto send_peer = int_cursor(send_peer_, "send.peer");
  auto recv_peer = int_cursor(recv_peer_, "recv.peer");
  auto coll_region = int_cursor(coll_region_, "collexit.region");
  auto coll_comm = int_cursor(coll_comm_, "collexit.comm");

  std::vector<double> t;
  std::vector<std::int64_t> er, sp, rp, cr, cc;
  std::size_t done = 0;
  try {
    while (done < nev_) {
      const std::size_t k =
          std::min(kScanChunk, static_cast<std::size_t>(nev_) - done);
      std::array<std::size_t, kNumEventTypes> cnt{};
      for (std::size_t i = 0; i < k; ++i) ++cnt[type_at(done + i)];
      t.resize(k);
      time.next(t.data(), k);
      er.resize(cnt[0]);
      if (cnt[0] != 0) enter_region.next(er.data(), cnt[0]);
      sp.resize(cnt[2]);
      if (cnt[2] != 0) send_peer.next(sp.data(), cnt[2]);
      rp.resize(cnt[3]);
      if (cnt[3] != 0) recv_peer.next(rp.data(), cnt[3]);
      cr.resize(cnt[4]);
      cc.resize(cnt[4]);
      if (cnt[4] != 0) {
        coll_region.next(cr.data(), cnt[4]);
        coll_comm.next(cc.data(), cnt[4]);
      }
      std::size_t ie = 0, is = 0, ir = 0, ic = 0;
      for (std::size_t i = 0; i < k; ++i) {
        LightEvent ev;
        ev.type = static_cast<EventType>(type_at(done + i));
        ev.time = t[i];
        switch (ev.type) {
          case EventType::Enter:
            ev.region = er[ie++];
            break;
          case EventType::Exit:
            break;
          case EventType::Send:
            ev.peer = sp[is++];
            break;
          case EventType::Recv:
            ev.peer = rp[ir++];
            break;
          case EventType::CollExit:
            ev.region = cr[ic];
            ev.comm = cc[ic];
            ++ic;
            break;
        }
        cb(ev);
      }
      done += k;
    }
    if (nev_ != 0) {
      time.finish();
      if (enter_region_.n != 0) enter_region.finish();
      if (send_peer_.n != 0) send_peer.finish();
      if (recv_peer_.n != 0) recv_peer.finish();
      if (coll_region_.n != 0) {
        coll_region.finish();
        coll_comm.finish();
      }
    }
  } catch (const Error& e) {
    rethrow(e, done);
  }
}

void TraceStream::finish_window_cursors() {
  if (time_.n != 0) c_time_.finish();
  if (enter_region_.n != 0) c_enter_region_.finish();
  if (send_peer_.n != 0) {
    c_send_peer_.finish();
    c_send_tag_.finish();
    c_send_bytes_.finish();
    c_send_comm_.finish();
  }
  if (recv_peer_.n != 0) {
    c_recv_peer_.finish();
    c_recv_tag_.finish();
    c_recv_bytes_.finish();
    c_recv_comm_.finish();
  }
  if (coll_region_.n != 0) {
    c_coll_region_.finish();
    c_coll_comm_.finish();
    c_coll_root_.finish();
    c_coll_bytes_.finish();
    c_coll_sent_.finish();
    c_coll_recvd_.finish();
  }
}

std::size_t TraceStream::next(std::vector<Event>& out,
                              std::size_t max_events,
                              std::vector<CollBytes>* coll_bytes) {
  const std::size_t k = std::min(max_events, remaining());
  if (k == 0) return 0;
  try {
    const std::size_t base = decoded_;
    std::array<std::size_t, kNumEventTypes> cnt{};
    for (std::size_t i = 0; i < k; ++i) ++cnt[type_at(base + i)];

    b_time_.resize(k);
    c_time_.next(b_time_.data(), k);
    b_enter_region_.resize(cnt[0]);
    if (cnt[0] != 0) c_enter_region_.next(b_enter_region_.data(), cnt[0]);

    // Per-type field buffers are pulled in column order; the interleave
    // below walks them with independent indices exactly like the batch
    // reader's reassembly loop.
    b_send_peer_.resize(cnt[2]);
    b_send_tag_.resize(cnt[2]);
    b_send_bytes_.resize(cnt[2]);
    b_send_comm_.resize(cnt[2]);
    if (cnt[2] != 0) {
      c_send_peer_.next(b_send_peer_.data(), cnt[2]);
      c_send_tag_.next(b_send_tag_.data(), cnt[2]);
      c_send_bytes_.next(b_send_bytes_.data(), cnt[2]);
      c_send_comm_.next(b_send_comm_.data(), cnt[2]);
    }
    b_recv_peer_.resize(cnt[3]);
    b_recv_tag_.resize(cnt[3]);
    b_recv_bytes_.resize(cnt[3]);
    b_recv_comm_.resize(cnt[3]);
    if (cnt[3] != 0) {
      c_recv_peer_.next(b_recv_peer_.data(), cnt[3]);
      c_recv_tag_.next(b_recv_tag_.data(), cnt[3]);
      c_recv_bytes_.next(b_recv_bytes_.data(), cnt[3]);
      c_recv_comm_.next(b_recv_comm_.data(), cnt[3]);
    }
    b_coll_region_.resize(cnt[4]);
    b_coll_comm_.resize(cnt[4]);
    b_coll_root_.resize(cnt[4]);
    b_coll_bytes_.resize(cnt[4]);
    b_coll_sent_.resize(cnt[4]);
    b_coll_recvd_.resize(cnt[4]);
    if (cnt[4] != 0) {
      c_coll_region_.next(b_coll_region_.data(), cnt[4]);
      c_coll_comm_.next(b_coll_comm_.data(), cnt[4]);
      c_coll_root_.next(b_coll_root_.data(), cnt[4]);
      c_coll_bytes_.next(b_coll_bytes_.data(), cnt[4]);
      c_coll_sent_.next(b_coll_sent_.data(), cnt[4]);
      c_coll_recvd_.next(b_coll_recvd_.data(), cnt[4]);
      if (coll_bytes != nullptr)
        for (std::size_t i = 0; i < cnt[4]; ++i)
          coll_bytes->push_back(CollBytes{b_coll_sent_[i], b_coll_recvd_[i]});
    }

    out.reserve(out.size() + k);
    std::size_t ie = 0, is = 0, ir = 0, ic = 0;
    for (std::size_t i = 0; i < k; ++i) {
      Event e;
      e.type = static_cast<EventType>(type_at(base + i));
      e.time = b_time_[i];
      switch (e.type) {
        case EventType::Enter:
          e.region = RegionId{static_cast<int>(b_enter_region_[ie++])};
          break;
        case EventType::Exit:
          break;
        case EventType::Send:
          e.peer = static_cast<Rank>(b_send_peer_[is]);
          e.tag = static_cast<int>(b_send_tag_[is]);
          e.bytes = b_send_bytes_[is];
          e.comm = CommId{static_cast<int>(b_send_comm_[is])};
          ++is;
          break;
        case EventType::Recv:
          e.peer = static_cast<Rank>(b_recv_peer_[ir]);
          e.tag = static_cast<int>(b_recv_tag_[ir]);
          e.bytes = b_recv_bytes_[ir];
          e.comm = CommId{static_cast<int>(b_recv_comm_[ir])};
          ++ir;
          break;
        case EventType::CollExit:
          e.region = RegionId{static_cast<int>(b_coll_region_[ic])};
          e.comm = CommId{static_cast<int>(b_coll_comm_[ic])};
          e.root = static_cast<Rank>(b_coll_root_[ic]);
          e.bytes = b_coll_bytes_[ic];
          ++ic;
          break;
      }
      out.push_back(e);
    }
    decoded_ += k;
    if (decoded_ == static_cast<std::size_t>(nev_)) finish_window_cursors();
  } catch (const Error& e) {
    rethrow(e, decoded_);
  }
  return k;
}

}  // namespace metascope::tracing
