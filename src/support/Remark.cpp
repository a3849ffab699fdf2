//===- Remark.cpp - Structured optimization remarks -----------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "support/Remark.h"

#include "support/Json.h"

namespace earthcc {

std::string Remark::str() const {
  std::string Out = Function + ":" + Loc.str() + ": [" + Pass + "." +
                    Category + "] " + Message;
  return Out;
}

bool RemarkStream::hasPass(const std::string &Pass,
                           const std::string &Category) const {
  for (const Remark &R : Remarks)
    if (R.Pass == Pass && (Category.empty() || R.Category == Category))
      return true;
  return false;
}

std::string RemarkStream::str() const {
  std::string Out;
  for (const Remark &R : Remarks)
    Out += "remark: " + R.str() + "\n";
  return Out;
}

std::string RemarkStream::json() const {
  std::string Out = "[";
  bool First = true;
  for (const Remark &R : Remarks) {
    Out += First ? "" : ", ";
    First = false;
    Out += "{\"pass\": \"" + json::escape(R.Pass) + "\", \"category\": \"" +
           json::escape(R.Category) + "\", \"function\": \"" +
           json::escape(R.Function) + "\", \"loc\": \"" + R.Loc.str() +
           "\", \"message\": \"" + json::escape(R.Message) + "\", \"args\": {";
    bool FirstArg = true;
    for (const auto &[K, V] : R.Args) {
      Out += FirstArg ? "" : ", ";
      FirstArg = false;
      Out += "\"" + json::escape(K) + "\": \"" + json::escape(V) + "\"";
    }
    Out += "}}";
  }
  return Out + "]";
}

} // namespace earthcc
