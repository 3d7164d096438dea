#ifndef GREATER_TEXT_WORD_TOKENIZER_H_
#define GREATER_TEXT_WORD_TOKENIZER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace greater {

/// Word-level tokenizer used by the GReaT pipeline's textual layer.
///
/// Splits text into maximal runs of [A-Za-z0-9_'^] plus single punctuation
/// tokens; whitespace separates but is not emitted. The encoded sentence
/// "Lunch is 1, Dinner is 2" tokenizes to
///   {"Lunch", "is", "1", ",", "Dinner", "is", "2"}
/// — note that the digit strings survive as standalone tokens, which is how
/// the identical-token ambiguity of the paper's Fig. 2 manifests here.
class WordTokenizer {
 public:
  /// Tokenizes one string.
  std::vector<std::string> Tokenize(const std::string& text) const;

  /// Calls `emit(std::string_view)` for each token of `text`, in order,
  /// without building the token strings.
  template <typename Emit>
  void ForEachToken(std::string_view text, Emit&& emit) const {
    size_t i = 0;
    while (i < text.size()) {
      const char c = text[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
      } else if (IsWordChar(c)) {
        const size_t start = i;
        while (i < text.size() && IsWordChar(text[i])) ++i;
        emit(text.substr(start, i - start));
      } else {
        emit(text.substr(i, 1));
        ++i;
      }
    }
  }

  /// Inverse of Tokenize up to whitespace normalization: joins tokens with
  /// single spaces but attaches punctuation to the preceding token
  /// ("2 ," -> "2,").
  std::string Detokenize(const std::vector<std::string>& tokens) const;

  /// Persistence for API uniformity with BpeTokenizer (artifact kind
  /// "greater.word_tokenizer"). The tokenizer is stateless, so the
  /// artifact is a chunkless marker document; Load only validates it.
  std::string SerializeBinary() const;
  Status DeserializeBinary(std::string_view bytes);
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  /// Characters that extend a word token.
  static bool IsWordChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '\'' || c == '^' || c == '-' || c == '.';
  }
};

}  // namespace greater

#endif  // GREATER_TEXT_WORD_TOKENIZER_H_
