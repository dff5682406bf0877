#include "reference/oracle.h"

#include <vector>

#include "common/random.h"
#include "common/value.h"
#include "log/execution_log.h"
#include "pxql/parser.h"
