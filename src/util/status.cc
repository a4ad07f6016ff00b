#include "util/status.hh"

namespace mipp {

std::string_view
statusCodeName(StatusCode c)
{
    switch (c) {
      case StatusCode::Ok:                return "Ok";
      case StatusCode::InvalidArgument:   return "InvalidArgument";
      case StatusCode::DeadlineExceeded:  return "DeadlineExceeded";
      case StatusCode::ResourceExhausted: return "ResourceExhausted";
      case StatusCode::Corrupt:           return "Corrupt";
      case StatusCode::Internal:          return "Internal";
    }
    return "Internal";
}

std::string
Status::toString() const
{
    std::string s{statusCodeName(code_)};
    if (!message_.empty()) {
        s += ": ";
        s += message_;
    }
    return s;
}

} // namespace mipp
