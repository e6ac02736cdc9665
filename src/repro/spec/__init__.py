"""The Tiera instance-specification language.

The paper configures instances through specification files (Figures 3-6)
but hand-codes the policies into the prototype, leaving "automated
compilation and optimization of specification files" to future work.
This package implements that compiler: :func:`compile_spec` turns the
paper's exact syntax into a running
:class:`~repro.core.instance.TieraInstance`.

Example (Figure 3, verbatim modulo whitespace)::

    Tiera LowLatencyInstance(time t) {
        tier1: { name: Memcached, size: 5G };
        tier2: { name: EBS, size: 5G };
        event(insert.into) : response {
            insert.object.dirty = true;
            store(what: insert.object, to: tier1);
        }
        event(time=t) : response {
            copy(what: object.location == tier1 &&
                       object.dirty == true,
                 to: tier2);
        }
    }

``%`` starts a comment (unless it immediately follows a number, where it
is the percent unit, as in ``75%``).

The paper's own instances are packaged spec files:
:func:`repro.spec.paper.paper_spec` reads one by name.
"""

from repro.spec.lexer import Lexer, SpecSyntaxError, Token
from repro.spec.parser import parse
from repro.spec.compiler import Compiler, compile_spec
from repro.spec.printer import print_spec

__all__ = [
    "Compiler",
    "Lexer",
    "SpecSyntaxError",
    "Token",
    "compile_spec",
    "parse",
    "print_spec",
]
