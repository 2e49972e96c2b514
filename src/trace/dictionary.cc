#include "dictionary.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace supmon
{
namespace trace
{

void
EventDictionary::addDef(EventDef def)
{
    if (byToken.count(def.token))
        sim::fatal("event token 0x%04x defined twice in the dictionary",
                   def.token);
    byToken[def.token] = defs.size();
    defs.push_back(std::move(def));
}

std::vector<std::string>
EventDictionary::statesInOrder() const
{
    std::vector<std::string> states;
    for (const auto &def : defs) {
        if (def.kind != EventKind::Begin)
            continue;
        if (std::find(states.begin(), states.end(), def.state) ==
            states.end())
            states.push_back(def.state);
    }
    return states;
}

std::string
EventDictionary::streamName(unsigned stream) const
{
    auto it = streamNames.find(stream);
    if (it != streamNames.end())
        return it->second;
    if (namer) {
        std::string name = namer(stream);
        if (!name.empty())
            return name;
    }
    return sim::strprintf("STREAM %u", stream);
}

} // namespace trace
} // namespace supmon
