#include "core/lifecycle.h"

namespace cubicleos::core {

const char *
lifeStateName(LifeState state)
{
    switch (state) {
    case LifeState::kLive:
        return "live";
    case LifeState::kDraining:
        return "draining";
    case LifeState::kDead:
        return "dead";
    }
    return "?";
}

} // namespace cubicleos::core
