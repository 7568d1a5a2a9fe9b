/**
 * @file
 * Additional shared cubicles: CTYPE and UKMATH.
 *
 * The paper's SQLite deployment uses four shared cubicles (§6.4);
 * besides LIBC and RANDOM these provide character classification and
 * small math helpers — stateless, frequently called code that would
 * be wasteful to isolate (every call would pay a trampoline for a
 * few-cycle function).
 */

#ifndef CUBICLEOS_LIBOS_SHARED_UTILS_H_
#define CUBICLEOS_LIBOS_SHARED_UTILS_H_

#include <cctype>
#include <cmath>

#include "builder/image.h"
#include "core/system.h"

namespace cubicleos::libos {

/** Shared character-classification cubicle (ctype). */
class CtypeComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "ctype";
        s.kind = core::CubicleKind::kShared;
        s.image = builder::componentImage(builder::ImageSeed::kCtype);
        return s;
    }

    void registerExports(core::Exporter &exp) override
    {
        exp.fn<int(int)>("isdigit", [](int c) {
            return std::isdigit(static_cast<unsigned char>(c)) ? 1 : 0;
        });
        exp.fn<int(int)>("isalpha", [](int c) {
            return std::isalpha(static_cast<unsigned char>(c)) ? 1 : 0;
        });
        exp.fn<int(int)>("isspace", [](int c) {
            return std::isspace(static_cast<unsigned char>(c)) ? 1 : 0;
        });
        exp.fn<int(int)>("toupper", [](int c) {
            return std::toupper(static_cast<unsigned char>(c));
        });
        exp.fn<int(int)>("tolower", [](int c) {
            return std::tolower(static_cast<unsigned char>(c));
        });
    }
};

/** Shared math-helpers cubicle. */
class UkmathComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "ukmath";
        s.kind = core::CubicleKind::kShared;
        s.image = builder::componentImage(builder::ImageSeed::kUkmath);
        return s;
    }

    void registerExports(core::Exporter &exp) override
    {
        exp.fn<double(double)>("sqrt",
                               [](double x) { return std::sqrt(x); });
        exp.fn<double(double)>("log",
                               [](double x) { return std::log(x); });
        exp.fn<double(double, double)>(
            "pow", [](double b, double e) { return std::pow(b, e); });
        exp.fn<int64_t(int64_t, int64_t)>(
            "muldiv64", [](int64_t a, int64_t b) {
                return b == 0 ? 0 : a / b;
            });
    }
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_SHARED_UTILS_H_
