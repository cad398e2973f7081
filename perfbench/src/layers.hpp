/**
 * @file
 * Traced layer run (layers.cpp).
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <string>

#include "common.hpp"
#include "endtoend.hpp"

namespace perfbench {

struct Reference;

/**
 * The traced run: time the calls into each layer's public functions
 * at 1 and run.threadsMt threads, check their outputs against @p ref,
 * report the per-layer metrics, and write every span recorded to
 * @p spansPath (one JSON object a line).
 */
void measureLayers(const RunConfig &run, const Inputs &in,
                   const Reference &ref, Outcome &outcome,
                   Metrics &metrics, const std::string &spansPath);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
