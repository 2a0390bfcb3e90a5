// Fixture: exactly one `hash-of-vectors` violation (a hash map whose
// mapped type is a vector, in a grid-index header). A map to a shared
// vector and the flat members below must NOT fire.
#ifndef SOI_TESTS_LINT_FIXTURES_BAD_HASH_OF_VECTORS_H_
#define SOI_TESTS_LINT_FIXTURES_BAD_HASH_OF_VECTORS_H_

#include <memory>
#include <unordered_map>
#include <vector>

struct BadHashOfVectors {
  std::unordered_map<int, std::shared_ptr<const std::vector<int>>> rows;
  std::unordered_map<int, std::vector<int>> postings;
  std::vector<int> offsets;
  std::vector<int> values;
};

#endif  // SOI_TESTS_LINT_FIXTURES_BAD_HASH_OF_VECTORS_H_
