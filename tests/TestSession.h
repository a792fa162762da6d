//===- tests/TestSession.h - Session helper for the tests -------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call session construction for tests that only care about what a
/// run produces, not about builder diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TESTS_TESTSESSION_H
#define PASTA_TESTS_TESTSESSION_H

#include "pasta/Session.h"

#include <memory>
#include <stdexcept>

namespace pasta {
namespace test {

/// Builds \p Builder's session. A configuration error throws, which
/// GoogleTest reports as a failure of the calling test.
inline std::unique_ptr<Session> buildSession(SessionBuilder &Builder) {
  SessionError Err;
  std::unique_ptr<Session> S = Builder.build(Err);
  if (!S)
    throw std::runtime_error("session build failed: " + Err.message());
  return S;
}

/// Same, for a builder temporary (`buildSession(SessionBuilder())`).
inline std::unique_ptr<Session> buildSession(SessionBuilder &&Builder) {
  return buildSession(Builder);
}

} // namespace test
} // namespace pasta

#endif // PASTA_TESTS_TESTSESSION_H
