#include "common/json_text.h"

#include <gtest/gtest.h>

#include <string>

namespace dufs {
namespace {

TEST(JsonHelpersTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape("tab\there\r"), "tab\\there\\u000d");
  // Bytes at or above 0x80 (UTF-8) pass through untouched.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonHelpersTest, AppendJsonStringQuotes) {
  std::string out = "x=";
  AppendJsonString(&out, "say \"hi\"");
  EXPECT_EQ(out, "x=\"say \\\"hi\\\"\"");
}

TEST(JsonHelpersTest, AppendJsonNumberRoundTrips) {
  std::string out;
  AppendJsonNumber(&out, 50);
  out += ',';
  AppendJsonNumber(&out, 12.5);
  out += ',';
  AppendJsonNumber(&out, 0.1);
  EXPECT_EQ(out, "50,12.5,0.10000000000000001");
}

}  // namespace
}  // namespace dufs
