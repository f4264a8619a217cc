#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <typeinfo>

namespace omr::net {

/// Base class for everything that travels over the simulated network.
/// Concrete protocols define their own message structs, each a `final`
/// direct subclass; the network layer only needs the serialized size to
/// model transmission time.
struct Message {
  virtual ~Message() = default;

  /// Total on-the-wire size in bytes, including protocol headers.
  virtual std::size_t wire_bytes() const = 0;

  /// Application payload bytes carried (no headers / metadata). Used only
  /// by telemetry for bytes-conservation accounting; pure-control messages
  /// keep the default of 0.
  virtual std::size_t payload_bytes() const { return 0; }
};

using MessagePtr = std::shared_ptr<const Message>;

/// `m` as a `T` when it is exactly a `T`, else null (also for a null `m`).
/// Receivers dispatch on this: since every message type is final, one
/// type_info compare decides it, with no walk of the class hierarchy.
template <typename T>
const T* message_cast(const Message* m) {
  static_assert(std::is_final_v<T> && std::is_base_of_v<Message, T>,
                "message_cast checks the exact type of a final message");
  if (m == nullptr || typeid(*m) != typeid(T)) return nullptr;
  return static_cast<const T*>(m);
}

/// Convenience: wrap a concrete message in a shared_ptr<const Message>.
template <typename T, typename... Args>
MessagePtr make_message(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace omr::net
