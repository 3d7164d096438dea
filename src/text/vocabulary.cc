#include "text/vocabulary.h"

#include "common/artifact_io.h"

namespace greater {

namespace {
constexpr char kVocabularyKind[] = "greater.vocabulary";
constexpr uint32_t kVocabularyVersion = 1;
}  // namespace

const char* Vocabulary::kPadToken = "<pad>";
const char* Vocabulary::kBosToken = "<bos>";
const char* Vocabulary::kEosToken = "<eos>";
const char* Vocabulary::kUnkToken = "<unk>";

Vocabulary::Vocabulary() {
  AddToken(kPadToken);
  AddToken(kBosToken);
  AddToken(kEosToken);
  AddToken(kUnkToken);
}

TokenId Vocabulary::AddToken(const std::string& token) {
  auto it = index_.find(token);
  if (it != index_.end()) return it->second;
  TokenId id = static_cast<TokenId>(tokens_.size());
  tokens_.push_back(token);
  index_[token] = id;
  return id;
}

TokenId Vocabulary::IdOf(std::string_view token) const {
  auto it = index_.find(token);
  return it == index_.end() ? kUnkId : it->second;
}

bool Vocabulary::Contains(const std::string& token) const {
  return index_.count(token) > 0;
}

const std::string& Vocabulary::TokenOf(TokenId id) const {
  if (id < 0 || static_cast<size_t>(id) >= tokens_.size()) {
    return tokens_[kUnkId];
  }
  return tokens_[static_cast<size_t>(id)];
}

std::vector<TokenId> Vocabulary::Encode(
    const std::vector<std::string>& tokens) const {
  std::vector<TokenId> out;
  out.reserve(tokens.size());
  for (const auto& t : tokens) out.push_back(IdOf(t));
  return out;
}

std::string Vocabulary::SerializeBinary() const {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(tokens_.size()));
  for (const std::string& token : tokens_) w.PutString(token);
  ArtifactWriter doc(kVocabularyKind, kVocabularyVersion);
  doc.AddChunk("tokens", std::move(w).Take());
  return doc.Finish();
}

Status Vocabulary::DeserializeBinary(std::string_view bytes) {
  GREATER_ASSIGN_OR_RETURN(
      ArtifactReader doc,
      ArtifactReader::Parse(std::string(bytes), kVocabularyKind,
                            kVocabularyVersion));
  GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("tokens"));
  ByteReader r(payload);
  uint32_t count = 0;
  GREATER_RETURN_NOT_OK(r.GetU32(&count));
  std::vector<std::string> tokens;
  tokens.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string token;
    GREATER_RETURN_NOT_OK(r.GetString(&token));
    tokens.push_back(std::move(token));
  }
  GREATER_RETURN_NOT_OK(r.ExpectEnd());
  if (tokens.size() < 4 || tokens[kPadId] != kPadToken ||
      tokens[kBosId] != kBosToken || tokens[kEosId] != kEosToken ||
      tokens[kUnkId] != kUnkToken) {
    return Status::DataLoss(
        "corrupt vocabulary: special tokens missing or misplaced");
  }
  tokens_.clear();
  index_.clear();
  for (std::string& token : tokens) {
    if (index_.count(token) > 0) {
      return Status::DataLoss("corrupt vocabulary: duplicate token '" +
                              token + "'");
    }
    index_[token] = static_cast<TokenId>(tokens_.size());
    tokens_.push_back(std::move(token));
  }
  return Status::OK();
}

Status Vocabulary::Save(const std::string& path) const {
  return AtomicWriteFile(path, SerializeBinary())
      .WithContext("saving vocabulary to '" + path + "'");
}

Status Vocabulary::Load(const std::string& path) {
  GREATER_ASSIGN_OR_RETURN_CTX(std::string bytes, ReadFileBytes(path),
                               "loading vocabulary from '" + path + "'");
  return DeserializeBinary(bytes)
      .WithContext("loading vocabulary from '" + path + "'");
}

std::vector<std::string> Vocabulary::Decode(
    const std::vector<TokenId>& ids) const {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (TokenId id : ids) {
    if (id == kPadId || id == kBosId || id == kEosId) continue;
    out.push_back(TokenOf(id));
  }
  return out;
}

}  // namespace greater
