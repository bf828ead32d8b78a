"""MSO1 model checking and optimization on graphs of bounded rankwidth,
given as t-labeled parse trees."""

from .chartree import (RCForest, RCTree, char_tree_from_parse_tree,
                       rename_combine, tree_cross_product)
from .errors import (DepthBudgetError, RwmsoError, ScaleGuardError,
                     WidthMismatchError)
from .games import CATALOG, GameStats, game_on_tree, model_check
from .linemso import LinEMSOProblem, LinEMSOResult, solve_linemso
from .logic import (Formula, FormulaSyntaxError, VariableList, free_variables,
                    is_sentence, parse_formula, pretty_print, quantifier_rank)
from .parsetree import (FAMILIES, ParseTree, family_tree,
                        format_parse_tree, generate_graph, parse_tree_from_text)
from .structures import (OrderedStructure, Relabeling, Structure,
                         build_structure, compose, ordered_induced)

__version__ = "0.1.0"

# names whose modules neither check nor optimize runs: each module loads
# when one of its names is first read
_DEFERRED = {"Assignment": "direct", "evaluate": "direct",
             "BranchDecomposition": "rankdec", "cut_rank": "rankdec",
             "exact_rankwidth": "rankdec",
             "format_graph": "graphtext", "parse_graph": "graphtext"}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
