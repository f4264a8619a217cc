#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "compress/wire_codec.h"
#include "net/message.h"
#include "tensor/blocks.h"

namespace omr::core {

/// One fused block inside a packet: which column of the stream's 2-D block
/// layout it belongs to, which (stream-local) block row it carries, and the
/// block's values. Only non-zero blocks are included (§3.2).
///
/// With a wire codec enabled, `data` holds the decoded representatives
/// (what the receiver reconstructs) and `enc` the encoded form actually on
/// the wire — payload sizing uses `enc` when present, and the aggregator
/// uses it for exact quantized-domain folds.
struct ColumnBlock {
  std::uint32_t column = 0;
  tensor::BlockIndex block = 0;  // stream-local block index
  std::vector<float> data;       // block_size values (padded at tensor end)
  std::shared_ptr<const compress::EncodedBlock> enc;  // null: raw fp32
};

/// Wire bytes of one ColumnBlock's values: the encoded payload when a
/// codec sidecar is attached, `data.size() * value_bytes` otherwise.
inline std::size_t column_payload_bytes(const ColumnBlock& c,
                                        std::size_t value_bytes) {
  if (c.enc != nullptr) return c.enc->payload_bytes();
  return c.data.size() * value_bytes;
}

/// Per-fused-block metadata bytes on the wire: the 64-bit "next" (data
/// packets) or "request" (results) offset of each active column.
inline constexpr std::size_t kPerBlockMetaBytes = 8;

/// Worker -> aggregator packet (Algorithm 1 / 2 with Block Fusion).
/// `next` always holds one entry per active column of the stream: the
/// sender's next non-zero block in that column (tensor::kNoBlock = infinity).
/// An ACK (Algorithm 2, zero payload) is a DataPacket with empty `columns`.
struct DataPacket final : net::Message {
  std::uint32_t stream = 0;
  std::uint8_t ver = 0;  // slot version (Algorithm 2); 0 when unused
  /// Membership-epoch tag (multi-step elastic runs): receivers drop packets
  /// whose epoch differs from their own, so an Algorithm 2 straggler of a
  /// finished step can never be misread as traffic of the step that reuses
  /// its stream id. Rides inside header_bytes (wire size unchanged); always
  /// 0 in single-collective runs, where the check can never fire.
  std::uint8_t epoch = 0;
  std::uint32_t wid = 0;
  std::vector<ColumnBlock> columns;
  std::vector<tensor::BlockIndex> next;  // size = active columns
  std::size_t header_bytes = 64;
  std::size_t value_bytes = 4;  // c_v: 4 = fp32, 2 = fp16 on the wire

  std::size_t wire_bytes() const override {
    return header_bytes + next.size() * kPerBlockMetaBytes +
           payload_bytes();
  }

  std::size_t payload_bytes() const override {
    std::size_t data_bytes = 0;
    for (const ColumnBlock& c : columns) {
      data_bytes += column_payload_bytes(c, value_bytes);
    }
    return data_bytes;
  }
};

/// Aggregator -> workers result packet. `columns` carries the aggregated
/// blocks of the slot just completed; `request[c]` is the global-minimum
/// next non-zero block the aggregator needs for column c (tensor::kNoBlock
/// signals that column is finished).
struct ResultPacket final : net::Message {
  std::uint32_t stream = 0;
  std::uint8_t ver = 0;
  std::uint8_t epoch = 0;  // membership-epoch tag (see DataPacket::epoch)
  std::vector<ColumnBlock> columns;
  std::vector<tensor::BlockIndex> request;  // size = active columns
  std::size_t header_bytes = 64;
  std::size_t value_bytes = 4;

  std::size_t wire_bytes() const override {
    return header_bytes + request.size() * kPerBlockMetaBytes +
           payload_bytes();
  }

  std::size_t payload_bytes() const override {
    std::size_t data_bytes = 0;
    for (const ColumnBlock& c : columns) {
      data_bytes += column_payload_bytes(c, value_bytes);
    }
    return data_bytes;
  }
};

/// One endpoint's free lists for the packets it sends (§3: a worker owns a
/// fixed set of packet buffers and an aggregator a fixed pool of slots,
/// reused round after round). A retired packet comes back once its owner
/// holds the sole reference: at once if the network and the peers have let
/// go, otherwise it is parked until they have (e.g. a result still queued
/// for a slow worker). Coming back, it is stripped into separate lists: the
/// packet object, its `columns` vector (room for one Block Fusion row,
/// handed only to packets that carry data, not to acks or announcements),
/// the column buffers and the codec sidecars. Each list creates an object
/// only when every one it made is in use, so a repeat of the same traffic
/// creates none. `Packet` is DataPacket or ResultPacket.
template <typename Packet>
class PacketPool {
 public:
  /// `row`: the most columns one packet carries (the fusion width).
  explicit PacketPool(std::size_t row) : row_(row) {}

  /// A recycled packet with no columns (its `next`/`request` vector keeps
  /// its last contents and capacity), or a fresh one when the pool is dry.
  /// With `carries_columns` its `columns` can hold a full row without
  /// regrowing.
  std::shared_ptr<Packet> acquire(bool carries_columns) {
    if (packets_.items.empty() || (carries_columns && rows_.items.empty())) {
      reclaim();
    }
    std::shared_ptr<Packet> p = packets_.take([this] {
      // Every packet created may end up parked at once.
      if (parked_.capacity() < packets_.created) {
        parked_.reserve(2 * packets_.created);
      }
      return std::make_shared<Packet>();
    });
    if (carries_columns) {
      p->columns = rows_.take([this] {
        std::vector<ColumnBlock> row;
        row.reserve(row_);
        return row;
      });
    }
    return p;
  }

  /// A recycled block buffer (any size), or an empty vector.
  std::vector<float> acquire_block() {
    if (blocks_.items.empty()) reclaim();
    return blocks_.take([] { return std::vector<float>(); });
  }

  /// A recycled codec sidecar for the encoder to overwrite, or a fresh one.
  std::shared_ptr<compress::EncodedBlock> acquire_sidecar() {
    if (sidecars_.items.empty()) reclaim();
    return sidecars_.take(
        [] { return std::make_shared<compress::EncodedBlock>(); });
  }

  /// Return a buffer handed out by acquire_block.
  void release_block(std::vector<float>&& v) {
    if (v.capacity() > 0) blocks_.items.push_back(std::move(v));
  }

  /// Retire `pkt` if it is a `Packet` (anything else, e.g. a resync
  /// request, is just dropped). `pkt` is null afterwards.
  void recycle(net::MessagePtr& pkt) {
    const Packet* raw = net::message_cast<Packet>(pkt.get());
    if (raw == nullptr) {
      pkt.reset();
      return;
    }
    std::shared_ptr<Packet> p(std::move(pkt), const_cast<Packet*>(raw));
    if (p.use_count() == 1) {
      release(std::move(p));
    } else {
      parked_.push_back(std::move(p));
    }
  }

 private:
  /// A LIFO free list whose capacity grows as objects are created, never
  /// as they come back: returning an object to it cannot allocate.
  template <typename T>
  struct FreeList {
    std::vector<T> items;
    std::size_t created = 0;

    template <typename Make>
    T take(Make make) {
      if (items.empty()) {
        if (items.capacity() < ++created) items.reserve(2 * created);
        return make();
      }
      T v = std::move(items.back());
      items.pop_back();
      return v;
    }
  };

  /// Strip a packet nobody else holds back into the free lists.
  void release(std::shared_ptr<Packet> p) {
    for (ColumnBlock& cb : p->columns) {
      release_block(std::move(cb.data));
      if (cb.enc != nullptr && cb.enc.use_count() == 1) {
        sidecars_.items.push_back(
            std::const_pointer_cast<compress::EncodedBlock>(std::move(cb.enc)));
      }
    }
    p->columns.clear();  // keeps capacity; buffers already moved out
    if (p->columns.capacity() > 0) {
      rows_.items.push_back(std::exchange(p->columns, {}));
    }
    packets_.items.push_back(std::move(p));
  }

  /// Release every parked packet nobody else holds any more.
  void reclaim() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < parked_.size(); ++i) {
      if (parked_[i].use_count() == 1) {
        release(std::move(parked_[i]));
      } else if (kept != i) {
        parked_[kept++] = std::move(parked_[i]);
      } else {
        ++kept;
      }
    }
    parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(kept),
                  parked_.end());
  }

  std::size_t row_;
  FreeList<std::shared_ptr<Packet>> packets_;
  FreeList<std::vector<ColumnBlock>> rows_;
  FreeList<std::vector<float>> blocks_;
  FreeList<std::shared_ptr<compress::EncodedBlock>> sidecars_;
  std::vector<std::shared_ptr<Packet>> parked_;  // retired, still shared
};

/// Restarted worker -> aggregator (fault-injection layer): "I lost all
/// protocol state for `stream`; send me your last emitted result so I can
/// rebuild my position". Pure control, header-only on the wire.
struct ResyncRequest final : net::Message {
  std::uint32_t stream = 0;
  std::uint32_t wid = 0;
  std::size_t header_bytes = 64;

  std::size_t wire_bytes() const override { return header_bytes; }
};

/// Aggregator -> restarted worker: the stream's last emitted ResultPacket
/// (null when no round has completed yet — the worker then redoes its
/// bootstrap announcement). The worker rebuilds `my_next` from the result's
/// request vector: block consumption per column is strictly increasing with
/// no owned block skipped, so "first owned non-zero block >= request[c]" is
/// exactly the position it held before crashing.
struct ResyncResponse final : net::Message {
  std::uint32_t stream = 0;
  std::shared_ptr<const ResultPacket> result;  // null: nothing emitted yet
  std::size_t header_bytes = 64;

  std::size_t wire_bytes() const override {
    return header_bytes + (result != nullptr ? result->wire_bytes() : 0);
  }
  std::size_t payload_bytes() const override {
    return result != nullptr ? result->payload_bytes() : 0;
  }
};

}  // namespace omr::core
