/**
 * @file
 * The policies the headline goldens pin, shared by the plain and the
 * sharded golden tests so both documents list them in one order.
 */

#ifndef CIDRE_TESTS_INTEGRATION_GOLDEN_POLICIES_H
#define CIDRE_TESTS_INTEGRATION_GOLDEN_POLICIES_H

#include <algorithm>
#include <string>
#include <vector>

#include "policies/registry.h"

namespace cidre {

/**
 * The scaling×keep-alive pairs pinned first (registry spellings):
 *   CSS+CIP, BSS+CIP, CSS+GDSF, BSS+GDSF, vanilla+CIP, vanilla+GDSF,
 *   vanilla+TTL.
 * The 3-cell partitioned golden pins these alone.
 */
inline const std::vector<std::string> kCorePolicyPairs = {
    "cidre",     "cidre-bss", "css-alone", "bss-alone",
    "cip-alone", "faascache", "ttl",
};

/**
 * Every registered policy: kCorePolicyPairs in their order, then the
 * rest of policies::allPolicyNames() in registry order, so the core
 * entries keep their place in golden_headline.json.
 */
inline std::vector<std::string>
goldenPolicyNames()
{
    std::vector<std::string> names = kCorePolicyPairs;
    for (const std::string &name : policies::allPolicyNames()) {
        if (std::find(names.begin(), names.end(), name) == names.end())
            names.push_back(name);
    }
    return names;
}

} // namespace cidre

#endif // CIDRE_TESTS_INTEGRATION_GOLDEN_POLICIES_H
