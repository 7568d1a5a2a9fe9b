/**
 * @file
 * Configurable toy components for core runtime tests.
 */

#ifndef CUBICLEOS_TESTS_CORE_TOY_COMPONENTS_H_
#define CUBICLEOS_TESTS_CORE_TOY_COMPONENTS_H_

#include <functional>
#include <string>
#include <utility>

#include "builder/image.h"
#include "core/system.h"

namespace cubicleos::core::testing {

/**
 * A component whose spec, exports and init are supplied by the test.
 * Unless the test supplies an image, it ships the builder's
 * application image.
 */
class ToyComponent : public Component {
  public:
    explicit ToyComponent(std::string name,
                          CubicleKind kind = CubicleKind::kIsolated)
        : name_(std::move(name)), kind_(kind)
    {}

    ComponentSpec spec() const override
    {
        ComponentSpec s;
        s.name = name_;
        s.kind = kind_;
        s.image = image_;
        s.entryPoints = entryPoints_;
        s.indirectTables = indirectTables_;
        return s;
    }

    void registerExports(Exporter &exp) override
    {
        if (exportsFn_)
            exportsFn_(exp, *this);
    }

    void init() override
    {
        if (initFn_)
            initFn_(*this);
    }

    ToyComponent &withImage(std::vector<uint8_t> image)
    {
        image_ = std::move(image);
        return *this;
    }

    ToyComponent &withEntryPoints(std::vector<std::size_t> entries)
    {
        entryPoints_ = std::move(entries);
        return *this;
    }

    ToyComponent &
    withIndirectTables(std::vector<EntryTable> tables)
    {
        indirectTables_ = std::move(tables);
        return *this;
    }

    ToyComponent &
    onExports(std::function<void(Exporter &, ToyComponent &)> f)
    {
        exportsFn_ = std::move(f);
        return *this;
    }

    ToyComponent &onInit(std::function<void(ToyComponent &)> f)
    {
        initFn_ = std::move(f);
        return *this;
    }

  private:
    std::string name_;
    CubicleKind kind_;
    std::vector<uint8_t> image_ =
        builder::componentImage(builder::ImageSeed::kApp);
    std::vector<std::size_t> entryPoints_;
    std::vector<EntryTable> indirectTables_;
    std::function<void(Exporter &, ToyComponent &)> exportsFn_;
    std::function<void(ToyComponent &)> initFn_;
};

/**
 * @p prefix followed by @p i, e.g. "c3": the name of the i-th of a
 * batch of components. Built by appending: GCC 12 at -O3 reports a
 * false -Wrestrict overlap on `"c" + std::to_string(i)`, which
 * prepends into the temporary.
 */
inline std::string
numbered(const char *prefix, int i)
{
    std::string name(prefix);
    name += std::to_string(i);
    return name;
}

/** Adds a fresh ToyComponent to @p sys and returns a reference. */
inline ToyComponent &
addToy(System &sys, const std::string &name,
       CubicleKind kind = CubicleKind::kIsolated)
{
    return static_cast<ToyComponent &>(
        sys.addComponent(std::make_unique<ToyComponent>(name, kind)));
}

} // namespace cubicleos::core::testing

#endif // CUBICLEOS_TESTS_CORE_TOY_COMPONENTS_H_
