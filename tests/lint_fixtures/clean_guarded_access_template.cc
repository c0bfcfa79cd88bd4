// Fixture: the same class template with every access under its lock, in
// member functions defined both in and outside the class body.
#include <mutex>
#include <shared_mutex>

#include "common/annotations.h"

namespace fixture {

template <class T>
class Box {
 public:
  T GetLocked() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return value_;
  }

  void Put(T v);
  T Peek() const;

 private:
  mutable std::shared_mutex mu_;
  T value_ OSQ_GUARDED_BY(mu_){};
};

template <class T>
void Box<T>::Put(T v) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  value_ = v;
}

template <class T>
T Box<T>::Peek() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return value_;
}

}  // namespace fixture
