"""The at-most-one ladder: its truth table, its CNF and its size.

``Translator._at_most_one`` builds each prefix as one binary ``or`` over
the previous prefix and the next operand, folding a TRUE operand and a
repeated one.  These tests evaluate the circuit over every assignment,
check that its Tseitin encoding admits exactly the assignments the
circuit does, and pin the linear size the binary prefixes buy.
"""

import itertools
import random

from repro.relational.translate import Translator
from repro.sat import CNF, FastSolver
from repro.sat import tseitin as ts

A, B, C = ts.var(1), ts.var(2), ts.var(3)
VARIABLES = (1, 2, 3)

#: Operands over three variables: plain variables, both constants, a
#: negation (so ``B`` can stand beside its ``not_``), and compound nodes
#: that overlap the variables.  Drawing with replacement repeats nodes.
POOL = (A, B, C, ts.TRUE, ts.FALSE, ts.not_(B), ts.and_(A, C), ts.or_(B, C))


def _assignments():
    for values in itertools.product((False, True), repeat=len(VARIABLES)):
        yield dict(zip(VARIABLES, values))


def _operand_lists():
    """Every list of up to three pool operands, a seeded sample of lists
    of four to six, and three lists that repeat an operand beside a
    complementary pair."""
    for n in range(4):
        yield from itertools.product(POOL, repeat=n)
    rng = random.Random(20160807)
    for n in (4, 5, 6):
        for _ in range(300):
            yield tuple(rng.choice(POOL) for _ in range(n))
    yield (A, B, A, ts.not_(B), C)
    yield (B, ts.not_(B), ts.FALSE, A, B, ts.TRUE)
    yield (ts.TRUE, A, ts.FALSE, A, ts.not_(A), C)


def _at_most_one_holds(operands, model):
    return sum(ts.evaluate(node, model) for node in operands) <= 1


def _or_nodes(node, found):
    if node.kind in ("and", "or", "not"):
        if node.kind == "or":
            found.append(node)
        for child in node.children:
            _or_nodes(child, found)
    return found


def _clauses(n):
    cnf = CNF()
    operands = [ts.var(cnf.new_var()) for _ in range(n)]
    ts.TseitinEncoder(cnf).assert_node(Translator._at_most_one(operands))
    return len(cnf.clauses)


class TestTruthTable:
    def test_true_iff_at_most_one_operand_holds(self):
        checked = 0
        for operands in _operand_lists():
            ladder = Translator._at_most_one(list(operands))
            for model in _assignments():
                assert ts.evaluate(ladder, model) == _at_most_one_holds(
                    operands, model
                ), (operands, model)
                checked += 1
        assert checked > 5000

    def test_prefixes_are_binary(self):
        # Over plain variables every ``or`` in the circuit is a prefix,
        # and none went through ``or_``'s flattening.
        operands = [ts.var(v) for v in range(1, 21)]
        wide = [
            node
            for node in _or_nodes(Translator._at_most_one(operands), [])
            if len(node.children) != 2
        ]
        assert wide == []


class TestEncoding:
    def test_cnf_admits_exactly_the_circuits_models(self):
        for n in range(2, 6):
            cnf = CNF()
            operands = [ts.var(cnf.new_var()) for _ in range(n)]
            ts.TseitinEncoder(cnf).assert_node(Translator._at_most_one(operands))
            solver = FastSolver()
            for clause in cnf.clauses:
                solver.add_clause(clause)
            for values in itertools.product((False, True), repeat=n):
                assumptions = [
                    v if on else -v for v, on in zip(range(1, n + 1), values)
                ]
                result = solver.solve(assumptions=assumptions)
                assert result.satisfiable == (sum(values) <= 1), values

    def test_size_is_linear(self):
        for n in (25, 50):
            assert _clauses(2 * n) <= 2.2 * _clauses(n), n
