#include "coherence/protocol.hh"

#include <sstream>

namespace consim
{

const char *
toString(MsgType t)
{
    switch (t) {
      case MsgType::L1GetS: return "L1GetS";
      case MsgType::L1GetM: return "L1GetM";
      case MsgType::L1PutM: return "L1PutM";
      case MsgType::L1Inv: return "L1Inv";
      case MsgType::L1WbReq: return "L1WbReq";
      case MsgType::L1Data: return "L1Data";
      case MsgType::L1InvAck: return "L1InvAck";
      case MsgType::L1WbData: return "L1WbData";
      case MsgType::GetS: return "GetS";
      case MsgType::GetM: return "GetM";
      case MsgType::PutM: return "PutM";
      case MsgType::PutS: return "PutS";
      case MsgType::FwdGetS: return "FwdGetS";
      case MsgType::FwdGetM: return "FwdGetM";
      case MsgType::Inv: return "Inv";
      case MsgType::Data: return "Data";
      case MsgType::Grant: return "Grant";
      case MsgType::InvAck: return "InvAck";
      case MsgType::FwdAck: return "FwdAck";
      case MsgType::PutAck: return "PutAck";
      case MsgType::Done: return "Done";
      case MsgType::MemRead: return "MemRead";
      case MsgType::MemWrite: return "MemWrite";
    }
    return "?";
}

bool
isIntraGroup(MsgType t)
{
    switch (t) {
      case MsgType::L1GetS:
      case MsgType::L1GetM:
      case MsgType::L1PutM:
      case MsgType::L1Inv:
      case MsgType::L1WbReq:
      case MsgType::L1Data:
      case MsgType::L1InvAck:
      case MsgType::L1WbData:
        return true;
      default:
        return false;
    }
}

std::string
describe(const Msg &m)
{
    std::ostringstream os;
    os << toString(m.type) << " blk=0x" << std::hex << m.block << std::dec
       << " " << m.srcTile << "->" << m.dstTile
       << " reqCore=" << m.reqCore << " reqBank=" << m.reqBankTile
       << " vm=" << m.vm;
    return os.str();
}

} // namespace consim
