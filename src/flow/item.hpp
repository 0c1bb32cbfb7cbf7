// Type-erased stream items.
//
// FastFlow moves raw void* through its queues; we keep the same untyped
// transport (stages of different types can be wired without template
// explosion) but with unique ownership and a checked downcast, following
// the Core Guidelines' preference for owned, typed access over raw void*.
#pragma once

#include <cassert>
#include <memory>
#include <typeinfo>
#include <utility>

namespace hs::flow {

/// A movable, type-erased, uniquely-owned payload flowing through a stream.
class Item {
 public:
  Item() = default;
  Item(Item&&) noexcept = default;
  Item& operator=(Item&&) noexcept = default;
  Item(const Item&) = delete;
  Item& operator=(const Item&) = delete;

  /// Wraps a value. Item::make<T>(args...) constructs in place.
  template <typename T, typename... Args>
  static Item make(Args&&... args) {
    Item item;
    item.holder_ = std::make_unique<HolderImpl<T>>(std::forward<Args>(args)...);
    return item;
  }

  /// Wraps an already-constructed value (deduced).
  template <typename T>
  static Item of(T value) {
    return make<T>(std::move(value));
  }

  [[nodiscard]] bool has_value() const { return holder_ != nullptr; }
  explicit operator bool() const { return has_value(); }

  /// Checked access: asserts the stored type matches in debug builds.
  template <typename T>
  [[nodiscard]] T& as() {
    assert(holder_ && "empty Item");
    assert(holder_->type() == typeid(T) && "Item type mismatch");
    return static_cast<HolderImpl<T>*>(holder_.get())->value;
  }

  template <typename T>
  [[nodiscard]] const T& as() const {
    assert(holder_ && "empty Item");
    assert(holder_->type() == typeid(T) && "Item type mismatch");
    return static_cast<const HolderImpl<T>*>(holder_.get())->value;
  }

  /// Moves the payload out, leaving the item empty.
  template <typename T>
  [[nodiscard]] T take() {
    T out = std::move(as<T>());
    holder_.reset();
    return out;
  }

  /// True if the stored type is T (false for empty items).
  template <typename T>
  [[nodiscard]] bool is() const {
    return holder_ && holder_->type() == typeid(T);
  }

  void reset() { holder_.reset(); }

 private:
  struct Holder {
    virtual ~Holder() = default;
    [[nodiscard]] virtual const std::type_info& type() const = 0;
  };

  template <typename T>
  struct HolderImpl final : Holder {
    template <typename... Args>
    explicit HolderImpl(Args&&... args) : value(std::forward<Args>(args)...) {}
    [[nodiscard]] const std::type_info& type() const override {
      return typeid(T);
    }
    T value;
  };

  std::unique_ptr<Holder> holder_;
};

}  // namespace hs::flow
