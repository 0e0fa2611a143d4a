/**
 * @file
 * The one place a machine configuration picks its timing model. Code
 * that drives either model is written once as a generic body and run
 * on the class the configuration names.
 */

#ifndef IMO_PIPELINE_CPU_MODEL_HH
#define IMO_PIPELINE_CPU_MODEL_HH

#include <type_traits>

#include "pipeline/config.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"

namespace imo::pipeline
{

/**
 * Call @p body with a std::type_identity of the CPU class @p config
 * describes (OooCpu or InOrderCpu) and return what it returns:
 *
 *     withCpuModel(cfg, [&]<typename Cpu>(std::type_identity<Cpu>) {
 *         Cpu cpu(cfg);
 *         ...
 *     });
 */
template <typename Body>
decltype(auto)
withCpuModel(const MachineConfig &config, Body &&body)
{
    if (config.outOfOrder)
        return body(std::type_identity<OooCpu>{});
    return body(std::type_identity<InOrderCpu>{});
}

} // namespace imo::pipeline

#endif // IMO_PIPELINE_CPU_MODEL_HH
