#include "net/message.hpp"

namespace srpc {

std::string_view to_string(MessageType t) noexcept {
  switch (t) {
    case MessageType::kCall:
      return "CALL";
    case MessageType::kReturn:
      return "RETURN";
    case MessageType::kFetch:
      return "FETCH";
    case MessageType::kFetchReply:
      return "FETCH_REPLY";
    case MessageType::kAllocBatch:
      return "ALLOC_BATCH";
    case MessageType::kAllocReply:
      return "ALLOC_REPLY";
    case MessageType::kInvalidate:
      return "INVALIDATE";
    case MessageType::kInvalidateAck:
      return "INVALIDATE_ACK";
    case MessageType::kDeref:
      return "DEREF";
    case MessageType::kDerefReply:
      return "DEREF_REPLY";
    case MessageType::kError:
      return "ERROR";
    case MessageType::kShutdown:
      return "SHUTDOWN";
    case MessageType::kWbPrepare:
      return "WB_PREPARE";
    case MessageType::kWbPrepareAck:
      return "WB_PREPARE_ACK";
    case MessageType::kWbCommit:
      return "WB_COMMIT";
    case MessageType::kWbCommitAck:
      return "WB_COMMIT_ACK";
    case MessageType::kWbAbort:
      return "WB_ABORT";
    case MessageType::kWbAbortAck:
      return "WB_ABORT_ACK";
    case MessageType::kPing:
      return "PING";
    case MessageType::kPong:
      return "PONG";
    case MessageType::kRejoin:
      return "REJOIN";
    case MessageType::kRejoinAck:
      return "REJOIN_ACK";
  }
  return "UNKNOWN";
}

}  // namespace srpc
