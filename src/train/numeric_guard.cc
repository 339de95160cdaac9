#include "train/numeric_guard.hh"

#include <cmath>
#include <cstdio>

namespace cascade {

bool
NumericGuard::admit(double loss, double gradNorm)
{
    if (!opts_.enabled)
        return true;

    const char *what = nullptr;
    double value = 0.0, limit = 0.0;
    if (!std::isfinite(loss)) {
        what = "non-finite loss";
        value = loss;
    } else if (loss > opts_.lossLimit) {
        what = "loss explosion";
        value = loss;
        limit = opts_.lossLimit;
    } else if (!std::isfinite(gradNorm)) {
        what = "non-finite gradient norm";
        value = gradNorm;
    } else if (gradNorm > opts_.gradNormLimit) {
        what = "gradient-norm explosion";
        value = gradNorm;
        limit = opts_.gradNormLimit;
    } else {
        consecutive_ = 0;
        return true;
    }

    char buf[128];
    if (limit > 0.0)
        std::snprintf(buf, sizeof buf, "%s (%g > limit %g)", what,
                      value, limit);
    else
        std::snprintf(buf, sizeof buf, "%s (%g)", what, value);
    reason_ = buf;
    ++trips_;
    ++consecutive_;
    return false;
}

} // namespace cascade
