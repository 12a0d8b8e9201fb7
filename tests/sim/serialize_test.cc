/**
 * @file
 * Unit tests for the checkpoint byte reader: corrupt bytes must throw,
 * never become invalid values.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::sim {
namespace {

TEST(StateReader, BoolMustBeZeroOrOne)
{
    StateWriter writer;
    writer.put<bool>(false);
    writer.put<bool>(true);
    writer.put<std::uint8_t>(2);
    StateReader reader(writer.bytes());
    EXPECT_FALSE(reader.get<bool>());
    EXPECT_TRUE(reader.get<bool>());
    EXPECT_THROW(reader.get<bool>(), std::runtime_error);
}

} // namespace
} // namespace cidre::sim
