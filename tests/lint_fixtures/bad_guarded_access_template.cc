// Fixture: lock-discipline breaches inside a class template that must trip
// osq-guarded-access, both in member functions defined in the class body
// and in ones defined outside it (`Box<T>::Name`).
#include <mutex>
#include <shared_mutex>

#include "common/annotations.h"

namespace fixture {

template <class T>
class Box {
 public:
  T Get() const {
    return value_;  // BAD: read without holding mu_
  }

  T GetLocked() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return value_;  // ok
  }

  void Put(T v);
  T Peek() const;

 private:
  mutable std::shared_mutex mu_;
  T value_ OSQ_GUARDED_BY(mu_){};
};

template <class T>
void Box<T>::Put(T v) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  value_ = v;  // BAD: write under a shared lock
}

template <class T>
T Box<T>::Peek() const {
  return value_;  // BAD: read without holding mu_
}

}  // namespace fixture
