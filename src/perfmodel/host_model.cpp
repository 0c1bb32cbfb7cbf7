#include "perfmodel/host_model.hpp"

namespace hs::perfmodel {

des::TaskId ModeledHost::work(double seconds,
                              std::span<const des::TaskId> deps) {
  // Chain after the previous task on this worker and the latest of the
  // explicit deps.
  des::TaskId after[2] = {tail_, des::Timeline::join(deps)};
  tail_ = machine_->host_task(engine_, seconds, after);
  return tail_;
}

des::TaskId ModeledHost::work_after(double seconds, des::TaskId dep) {
  return work(seconds, {&dep, 1});
}

}  // namespace hs::perfmodel
