#include "core/goal.h"

#include <cmath>
#include <stdexcept>

namespace smartconf {

double
virtualGoalFor(const Goal &goal, double lambda)
{
    if (goal.direction == GoalDirection::UpperBound)
        return (1.0 - lambda) * goal.value;
    return (1.0 + lambda) * goal.value;
}

void
requireFiniteGoalValue(const std::string &metric, double value)
{
    if (!std::isfinite(value))
        throw std::invalid_argument("goal value for metric '" + metric +
                                    "' must be finite");
}

} // namespace smartconf
