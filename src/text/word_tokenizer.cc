#include "text/word_tokenizer.h"

#include <cctype>

#include "common/artifact_io.h"

namespace greater {
namespace {

bool IsPunct(const std::string& token) {
  return token.size() == 1 && !WordTokenizer::IsWordChar(token[0]) &&
         !std::isspace(static_cast<unsigned char>(token[0]));
}

}  // namespace

std::vector<std::string> WordTokenizer::Tokenize(
    const std::string& text) const {
  std::vector<std::string> out;
  ForEachToken(text, [&out](std::string_view token) {
    out.emplace_back(token);
  });
  return out;
}

std::string WordTokenizer::Detokenize(
    const std::vector<std::string>& tokens) const {
  std::string out;
  for (const auto& token : tokens) {
    if (!out.empty() && !IsPunct(token)) out += ' ';
    out += token;
  }
  return out;
}

std::string WordTokenizer::SerializeBinary() const {
  return ArtifactWriter("greater.word_tokenizer", 1).Finish();
}

Status WordTokenizer::DeserializeBinary(std::string_view bytes) {
  GREATER_ASSIGN_OR_RETURN(
      ArtifactReader doc,
      ArtifactReader::Parse(std::string(bytes), "greater.word_tokenizer", 1));
  (void)doc;
  return Status::OK();
}

Status WordTokenizer::Save(const std::string& path) const {
  return AtomicWriteFile(path, SerializeBinary())
      .WithContext("saving word tokenizer to '" + path + "'");
}

Status WordTokenizer::Load(const std::string& path) {
  GREATER_ASSIGN_OR_RETURN_CTX(std::string bytes, ReadFileBytes(path),
                               "loading word tokenizer from '" + path + "'");
  return DeserializeBinary(bytes)
      .WithContext("loading word tokenizer from '" + path + "'");
}

}  // namespace greater
