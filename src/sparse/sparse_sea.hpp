// Splitting equilibration on sparse support patterns.
//
// The solver of core/diagonal_sea.hpp on the sparse layout (SparseSea,
// SolveSparse): each row/column market only ranges over its pattern
// entries, so a full sweep costs O(nnz log(max row length)) instead of
// O(mn log n). Used for the paper's sparse I/O instances and any
// application with structural zeros. The problem's fingerprint
// (core/checkpoint.hpp) and the checks (problems/feasibility.hpp,
// problems/solution.hpp) take either layout.
#pragma once

#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "problems/feasibility.hpp"
#include "problems/solution.hpp"
#include "sparse/sparse_problem.hpp"
