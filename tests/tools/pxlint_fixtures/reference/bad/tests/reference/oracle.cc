// Seeded violations: the reference reaches into the engine.
#include "reference/oracle.h"
#include "common/value.h"
#include "features/pair_feature_kernel.h"
#include "core/engine.h"
