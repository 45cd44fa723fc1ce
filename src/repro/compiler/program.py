"""Whole-program compilation: many named HE statements, one fused plan.

:meth:`Pipeline.run` compiles one expression; a real workload is a *set* of
statements over shared inputs — a bootstrap circuit's CoeffToSlot terms all
multiply the same ciphertext, an inference layer evaluates many rotations
of one input.  :class:`HeProgram` collects named statements and compiles
them **together** through :meth:`Pipeline.run_many`, so

* shared sub-expressions lower once (the pipeline's structural memo),
* the optimiser's CSE pass merges duplicated transforms *across*
  statements (work the per-statement path recomputes per run), and
* the whole program executes in one ``backend.execute`` call — on the
  ``parallel`` backend, a handful of fused per-worker stages.

Usage::

    program = ctx.program()
    x = program.load(ct)
    program.let("sq", x.square().relinearize(rk).mod_switch())
    program.let("twice", x + x)
    results = program.run()          # {"sq": Ciphertext, "twice": Ciphertext}
"""

from __future__ import annotations

__all__ = ["HeProgram"]


class HeProgram:
    """A multi-statement HE program compiled into a single fused plan.

    Args:
        context: The :class:`~repro.he.context.HeContext` whose pipeline
            (and with it plan cache and optimiser) the
            program compiles through.
    """

    def __init__(self, context) -> None:
        self.context = context
        self.pipeline = context.pipeline()
        self._statements: list[tuple[str, object]] = []

    def load(self, ciphertext):
        """Wrap a ciphertext as an expression leaf (shared across statements)."""
        return self.pipeline.load(ciphertext)

    def let(self, name: str, expr):
        """Record ``name = expr`` as a program output; returns ``expr``.

        Statements may reference each other's expressions freely — sharing
        is structural, so ``let``-ing an intermediate both names it as an
        output and costs nothing extra when later statements reuse it.
        """
        if any(existing == name for existing, _ in self._statements):
            raise ValueError("program already defines statement %r" % name)
        self._statements.append((name, expr))
        return expr

    @property
    def statements(self) -> tuple[str, ...]:
        """The recorded statement names, in definition order."""
        return tuple(name for name, _ in self._statements)

    def run(self) -> dict:
        """Compile (cached per program shape) and execute every statement.

        One plan, one backend call; returns ``{name: Ciphertext}``.
        """
        if not self._statements:
            raise ValueError("program has no statements; call let() first")
        results = self.pipeline.run_many([expr for _, expr in self._statements])
        return {
            name: result
            for (name, _), result in zip(self._statements, results)
        }
