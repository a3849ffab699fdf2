//===- Remark.cpp - Structured optimization remarks -----------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "support/Remark.h"

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

} // namespace earthcc
