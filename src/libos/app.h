/**
 * @file
 * A generic application component: an isolated cubicle that hosts
 * arbitrary application code (the "app is just another component"
 * property of Unikraft/CubicleOS, paper §5.2).
 */

#ifndef CUBICLEOS_LIBOS_APP_H_
#define CUBICLEOS_LIBOS_APP_H_

#include <functional>
#include <string>
#include <utility>

#include "builder/image.h"
#include "core/system.h"

namespace cubicleos::libos {

/** An isolated cubicle for application code. */
class AppComponent : public core::Component {
  public:
    explicit AppComponent(std::string name = "app",
                          std::function<void()> init_fn = {})
        : name_(std::move(name)), initFn_(std::move(init_fn))
    {}

    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = name_;
        s.kind = core::CubicleKind::kIsolated;
        s.image = builder::componentImage(builder::ImageSeed::kApp);
        return s;
    }

    void registerExports(core::Exporter &) override {}

    void init() override
    {
        if (initFn_)
            initFn_();
    }

    /** Runs @p fn with the calling thread inside this cubicle. */
    template <typename F>
    decltype(auto) run(F &&fn)
    {
        return sys()->runAs(self(), std::forward<F>(fn));
    }

  private:
    std::string name_;
    std::function<void()> initFn_;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_APP_H_
