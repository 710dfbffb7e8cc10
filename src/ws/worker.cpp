#include "ws/worker.hpp"

namespace dws::ws {

void DeliverToWorkers::operator()(topo::Rank dst,
                                  const proto::Message& msg) const {
  (*workers)[dst]->on_message(msg);
}

}  // namespace dws::ws
