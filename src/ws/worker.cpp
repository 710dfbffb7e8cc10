#include "ws/worker.hpp"

#include <utility>

namespace dws::ws {

template class Worker<WsPort>;

void DeliverToWorkers::operator()(topo::Rank dst, proto::Message msg) const {
  (*workers)[dst]->on_message(std::move(msg));
}

}  // namespace dws::ws
