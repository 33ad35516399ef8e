// The benchmark corpus, apart from the pipeline so that the codec's tests can
// use it without the TM runtime.
#include <cstring>

#include "pipez/pipeline.hpp"
#include "util/rng.hpp"

namespace tle::pipez {

std::vector<std::uint8_t> make_corpus(std::size_t bytes, std::uint64_t seed) {
  static const char* words[] = {
      "the ",    "quick ",  "brown ",   "fox ",    "jumps ",   "over ",
      "a ",      "lazy ",   "dog ",     "stream ", "cipher ",  "block ",
      "lock ",   "elide ",  "commit ",  "abort ",  "quiesce ", "thread ",
      "encode ", "decode ", "pipeline "};
  constexpr std::size_t kWords = sizeof(words) / sizeof(words[0]);
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(bytes + 32);
  while (out.size() < bytes) {
    const char* w = words[rng.below(kWords)];
    out.insert(out.end(), w, w + std::strlen(w));
    if (rng.chance(0.03)) out.push_back('\n');
    if (rng.chance(0.01)) {
      // Occasional binary noise keeps the codec honest.
      out.push_back(static_cast<std::uint8_t>(rng()));
    }
  }
  out.resize(bytes);
  return out;
}

}  // namespace tle::pipez
