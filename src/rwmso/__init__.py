"""MSO1 model checking and optimization on graphs of bounded rankwidth,
given as t-labeled parse trees."""

from .chartree import (RCForest, RCTree, SizeBound, char_tree_from_parse_tree,
                       exp_tower, leaf_char_tree, rename_combine,
                       reduced_char_tree_direct, size_bound, tower_at_least,
                       tree_cross_product)
from .errors import (DepthBudgetError, RwmsoError, ScaleGuardError,
                     WidthMismatchError)
from .games import (Assignment, CATALOG, GameStats, catalog, evaluate,
                    game_on_tree, model_check)
from .linemso import LinEMSOProblem, LinEMSOResult, solve_linemso
from .logic import (Formula, FormulaSyntaxError, VariableList, free_variables,
                    is_sentence, parse_formula, pretty_print, quantifier_rank,
                    to_nnf)
from .parsetree import (FAMILIES, ParseTree, family_tree,
                        format_parse_tree, generate_graph, parse_tree_from_text)
from .rankdec import (BranchDecomposition, cut_rank, decomposition_width,
                      exact_rankwidth)
from .structures import (OrderedStructure, Relabeling, Structure,
                         build_structure, compose, format_graph,
                         generated_subspace, is_partial_isomorphism,
                         ordered_induced, parse_graph, relabel,
                         subspaces_orthogonal)

__version__ = "0.1.0"
