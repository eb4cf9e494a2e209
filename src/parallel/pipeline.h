/**
 * @file
 * Pipeline-parallelism model (Sec. 5.3, Fig. 12).
 *
 * The paper cannot measure FP4/FP8 wall-clock on real hardware, so the
 * pipeline analysis is analytical: blocks are partitioned into stages,
 * each stage's forward/backward time follows the FLOPs model with the
 * Blackwell throughput ratios, and a synchronous 1F1B (GPipe-style
 * flush) schedule is simulated over microbatches to obtain the
 * timeline, makespan and bubble fraction.
 */
#ifndef SNIP_PARALLEL_PIPELINE_H
#define SNIP_PARALLEL_PIPELINE_H

#include <string>
#include <vector>

#include "core/flops_model.h"

namespace snip {

/** Static description of one pipeline stage. */
struct PipelineStage
{
    int first_block = 0;
    int n_blocks = 0;
    /** Relative forward time of one microbatch through this stage. */
    double fwd_time = 0.0;
    /** Relative backward time (2x forward FLOPs). */
    double bwd_time = 0.0;
    /** FP4 FLOP fraction inside this stage. */
    double fp4_fraction = 0.0;
};

/** One scheduled work item on the timeline. */
struct PipelineEvent
{
    int stage = 0;
    int microbatch = 0;
    bool is_forward = true;
    double start = 0.0;
    double end = 0.0;
};

/** Complete simulation result. */
struct PipelineTimeline
{
    std::vector<PipelineStage> stages;
    std::vector<PipelineEvent> events;
    double makespan = 0.0;
    /** Fraction of stage-time slots spent idle. */
    double bubble_fraction = 0.0;

    /** ASCII Gantt rendering (Fig. 12 style). */
    std::string render(int width = 72) const;
};

/** Split n_blocks into n_stages: ceil-sized stages first, remainder
 *  last, never leaving a later stage empty (TinyLlama 22 blocks over 4
 *  stages -> 6,6,6,4 as in Fig. 12; 4 blocks over 3 -> 2,1,1). */
std::vector<int> evenStageSplit(int n_blocks, int n_stages);

/** Build stage descriptions for a scheme. */
std::vector<PipelineStage> buildStages(const FlopsModel &flops,
                                       const PrecisionScheme &scheme,
                                       const std::vector<int> &split);

/**
 * Simulate a synchronous 1F1B schedule: forwards fill in order, each
 * stage alternating with backwards once steady state is reached;
 * dependencies are microbatch-order within a stage, stage-order within
 * a microbatch (forward downstream, backward upstream).
 */
PipelineTimeline simulatePipeline(const std::vector<PipelineStage> &stages,
                                  int n_microbatches);

} // namespace snip

#endif // SNIP_PARALLEL_PIPELINE_H
