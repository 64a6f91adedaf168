#include <gtest/gtest.h>

#include <string>

#include "text/bpe.hpp"
#include "text/ngram.hpp"
#include "text/tokenize.hpp"
#include "util/rng.hpp"

namespace wt = wisdom::text;

namespace {
const std::string kYamlCorpus =
    "- name: Install nginx\n"
    "  ansible.builtin.apt:\n"
    "    name: nginx\n"
    "    state: present\n"
    "- name: Start nginx\n"
    "  ansible.builtin.service:\n"
    "    name: nginx\n"
    "    state: started\n"
    "- name: Install postgresql\n"
    "  ansible.builtin.apt:\n"
    "    name: postgresql\n"
    "    state: present\n";
}  // namespace

// --- pretokenize -----------------------------------------------------------

TEST(Pretokenize, NewlinesStandalone) {
  auto toks = wt::pretokenize("a\nb");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1], "\n");
}

TEST(Pretokenize, IndentGluesToWord) {
  auto toks = wt::pretokenize("    state: present");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "    state:");
  EXPECT_EQ(toks[1], " present");
}

TEST(Pretokenize, ConcatenationRecoversInput) {
  std::string input = "  - name: X\n    apt:\n      state: present\n";
  std::string glued;
  for (auto t : wt::pretokenize(input)) glued += t;
  EXPECT_EQ(glued, input);
}

// --- BPE --------------------------------------------------------------------

TEST(Bpe, RoundTripOnTrainingDomain) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 300);
  auto ids = tok.encode(kYamlCorpus);
  EXPECT_EQ(tok.decode(ids), kYamlCorpus);
}

TEST(Bpe, RoundTripOnUnseenText) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 300);
  std::string unseen = "completely: different\n  content: [1, 2]\n";
  EXPECT_EQ(tok.decode(tok.encode(unseen)), unseen);
}

TEST(Bpe, RoundTripArbitraryBytes) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 280);
  wisdom::util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::string bytes;
    for (int i = 0; i < 64; ++i)
      bytes += static_cast<char>(rng.uniform(256));
    EXPECT_EQ(tok.decode(tok.encode(bytes)), bytes);
  }
}

TEST(Bpe, MergesCompress) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 400);
  auto ids = tok.encode(kYamlCorpus);
  // With learned merges the sequence must be much shorter than raw bytes.
  EXPECT_LT(ids.size(), kYamlCorpus.size() / 2);
  EXPECT_GT(tok.merge_count(), 20u);
}

TEST(Bpe, LargerVocabNeverLongerEncoding) {
  auto small = wt::BpeTokenizer::train(kYamlCorpus, 280);
  auto large = wt::BpeTokenizer::train(kYamlCorpus, 420);
  EXPECT_LE(large.encode(kYamlCorpus).size(),
            small.encode(kYamlCorpus).size());
}

TEST(Bpe, DeterministicTraining) {
  auto a = wt::BpeTokenizer::train(kYamlCorpus, 320);
  auto b = wt::BpeTokenizer::train(kYamlCorpus, 320);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_EQ(a.encode("state: present"), b.encode("state: present"));
}

TEST(Bpe, SpecialTokensDecodeToNothing) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 280);
  std::vector<wt::TokenId> ids = {wt::BpeTokenizer::kEndOfText,
                                  wt::BpeTokenizer::kPad};
  EXPECT_EQ(tok.decode(ids), "");
  EXPECT_EQ(tok.token_text(wt::BpeTokenizer::kEndOfText), "<|eot|>");
  EXPECT_EQ(tok.token_text(wt::BpeTokenizer::kPad), "<|pad|>");
}

// decode() is the concatenation of token_bytes(), which is what lets the
// streaming emitter look at one token's bytes instead of the whole body.
TEST(Bpe, DecodeConcatenatesTokenBytes) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 280);
  std::vector<wt::TokenId> ids = tok.encode(kYamlCorpus);
  ids.insert(ids.begin() + 3, wt::BpeTokenizer::kEndOfText);
  ids.push_back(wt::BpeTokenizer::kPad);
  ids.push_back(100000);  // unknown id
  std::string joined;
  for (wt::TokenId id : ids) joined += tok.token_bytes(id);
  EXPECT_EQ(joined, tok.decode(ids));
  EXPECT_EQ(tok.token_bytes(wt::BpeTokenizer::kEndOfText), "");
}

TEST(Bpe, SerializationRoundTrip) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 350);
  auto restored = wt::BpeTokenizer::deserialize(tok.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->vocab_size(), tok.vocab_size());
  EXPECT_EQ(restored->encode(kYamlCorpus), tok.encode(kYamlCorpus));
}

TEST(Bpe, DeserializeRejectsGarbage) {
  EXPECT_FALSE(wt::BpeTokenizer::deserialize("not a tokenizer").has_value());
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 300);
  std::string data = tok.serialize();
  data.resize(data.size() / 2);
  EXPECT_FALSE(wt::BpeTokenizer::deserialize(data).has_value());
}

TEST(Bpe, VocabSizeHonored) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 300);
  EXPECT_LE(tok.vocab_size(), 300u);
  EXPECT_GE(tok.vocab_size(), 258u);
}

// --- bleu tokenization ----------------------------------------------------------

TEST(BleuTokenize, SplitsIdentifiersAndPunct) {
  auto toks = wt::bleu_tokenize("name: openssh-server");
  std::vector<std::string> expected = {"name", ":", "openssh", "-", "server"};
  EXPECT_EQ(toks, expected);
}

TEST(BleuTokenize, NewlineMarkers) {
  auto toks = wt::bleu_tokenize("a\nb");
  std::vector<std::string> expected = {"a", "<nl>", "b"};
  EXPECT_EQ(toks, expected);
}

TEST(BleuTokenize, KeepsUnderscoreInIdentifier) {
  auto toks = wt::bleu_tokenize("gather_facts: false");
  EXPECT_EQ(toks[0], "gather_facts");
}

// --- ngrams --------------------------------------------------------------------

TEST(Ngram, CountsAndClipping) {
  std::vector<std::string> a = {"x", "y", "x", "y"};
  auto unigrams = wt::count_ngrams(a, 1);
  EXPECT_EQ(unigrams["x"], 2);
  auto bigrams = wt::count_ngrams(a, 2);
  EXPECT_EQ(bigrams.size(), 2u);  // distinct: xy (count 2), yx (count 1)
  EXPECT_EQ(bigrams["x\x1fy"], 2);
  std::vector<std::string> ref = {"x", "y"};
  auto ref_uni = wt::count_ngrams(ref, 1);
  // candidate has x twice but reference only once: clipped to 1 (+1 for y).
  EXPECT_EQ(wt::clipped_matches(unigrams, ref_uni), 2);
}

TEST(Ngram, OrderLargerThanSequence) {
  std::vector<std::string> a = {"x"};
  EXPECT_TRUE(wt::count_ngrams(a, 2).empty());
  EXPECT_TRUE(wt::count_ngrams({}, 1).empty());
}
