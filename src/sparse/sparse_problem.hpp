// Diagonal constrained matrix problems with an explicit support pattern:
// only pattern entries are variables; structural zeros stay zero.
//
// This is the form practitioners actually solve for sparse I/O tables —
// the paper's IO72 instances are only 16% dense — and it changes the
// semantics relative to DiagonalProblem with stiff zero-cell weights:
// off-pattern cells are excluded outright, so the totals must be reachable
// on the pattern (checkable with CheckFeasibleTotals). SparseDiagonalProblem
// is the one problem type (problems/diagonal_problem.hpp) on the sparse
// layout, so it takes every totals regime the dense layout takes.
#pragma once

#include "problems/diagonal_problem.hpp"
#include "sparse/feasibility_flow.hpp"
#include "sparse/sparse_matrix.hpp"
