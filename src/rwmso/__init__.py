"""MSO1 model checking and optimization on graphs of bounded rankwidth,
given as t-labeled parse trees."""

from .chartree import (RCForest, RCTree, char_tree_from_parse_tree,
                       leaf_char_tree, rename_combine, reduced_char_tree_direct,
                       tree_cross_product)
from .errors import (DepthBudgetError, RwmsoError, ScaleGuardError,
                     WidthMismatchError)
from .games import (Assignment, CATALOG, GameStats, evaluate, game_on_tree,
                    model_check)
from .linemso import LinEMSOProblem, LinEMSOResult, solve_linemso
from .logic import (Formula, FormulaSyntaxError, VariableList, free_variables,
                    is_sentence, parse_formula, pretty_print, quantifier_rank)
from .parsetree import (FAMILIES, ParseTree, family_tree,
                        format_parse_tree, generate_graph, parse_tree_from_text)
from .rankdec import BranchDecomposition, cut_rank, exact_rankwidth
from .structures import (OrderedStructure, Relabeling, Structure,
                         build_structure, compose, format_graph,
                         ordered_induced, parse_graph)

__version__ = "0.1.0"
