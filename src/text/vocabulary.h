#ifndef GREATER_TEXT_VOCABULARY_H_
#define GREATER_TEXT_VOCABULARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/strings.h"

namespace greater {

/// Integer id of a token in a Vocabulary.
using TokenId = int32_t;

/// Bidirectional token <-> id map shared by the tokenizers and language
/// models.
///
/// The crucial property (the paper's Challenge I): ids are keyed purely by
/// the token *string*. The "1" in the Lunch column and the "1" in the
/// Access Device column receive the same id and therefore share all
/// language-model statistics — exactly the ambiguity the Data Semantic
/// Enhancement System removes by renaming categories before encoding.
class Vocabulary {
 public:
  /// Reserved special tokens, always present at fixed ids.
  static constexpr TokenId kPadId = 0;
  static constexpr TokenId kBosId = 1;
  static constexpr TokenId kEosId = 2;
  static constexpr TokenId kUnkId = 3;

  static const char* kPadToken;  // "<pad>"
  static const char* kBosToken;  // "<bos>"
  static const char* kEosToken;  // "<eos>"
  static const char* kUnkToken;  // "<unk>"

  Vocabulary();

  /// Adds `token` if absent; returns its id either way.
  TokenId AddToken(const std::string& token);

  /// Id of `token`, or kUnkId when unknown. Takes a view, so a token cut
  /// out of a longer string needs no copy.
  TokenId IdOf(std::string_view token) const;

  /// True if `token` has been added.
  bool Contains(const std::string& token) const;

  /// Token string of `id`. Out-of-range ids render as the unk token.
  const std::string& TokenOf(TokenId id) const;

  /// Number of tokens including the four specials.
  size_t size() const { return tokens_.size(); }

  /// Encodes a token sequence (unknowns -> kUnkId).
  std::vector<TokenId> Encode(const std::vector<std::string>& tokens) const;

  /// Decodes an id sequence, skipping pad/bos/eos.
  std::vector<std::string> Decode(const std::vector<TokenId>& ids) const;

  /// Persistence (artifact kind "greater.vocabulary"; see DESIGN.md,
  /// "Durability & recovery"). SerializeBinary emits a full artifact
  /// document so vocabularies embed unchanged inside encoder/synthesizer
  /// bundles; a round-trip preserves every token at its exact id.
  std::string SerializeBinary() const;
  Status DeserializeBinary(std::string_view bytes);
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  std::vector<std::string> tokens_;
  // Transparent, so lookups by std::string_view build no std::string.
  std::unordered_map<std::string, TokenId, TransparentStringHash,
                     std::equal_to<>>
      index_;
};

}  // namespace greater

#endif  // GREATER_TEXT_VOCABULARY_H_
