"""Multi-pattern regex matching with tagged multi-active-state automata.

Compile a set of labeled patterns into one union machine, then scan a byte
string once, reporting every match of every pattern at every (start, end)
span, online. Patterns can be added and removed between scans without
rebuilding the machine, and scans can be partitioned by pattern or by
input segment with output identical to a single scan.
"""

from .automaton import Automaton, epsilon_closure, validate
from .compile import (StateCeilingExceeded, compile_nfa, compile_pattern,
                      nfa_to_dfa, read_pattern_file)
from .engine import (ActiveSet, Engine, EngineStats, Match,
                     GenerationMismatchError, find_matches, run, run_segment)
from .parallel import (PartitionPlan, data_plan, regex_plan,
                       run_chained_partitioned, run_lazy_partitioned,
                       run_partitioned, run_regex_partitioned)
from .syntax import RegexSyntaxError, parse_regex
from .union import (Pfsm, add_pattern, build_pfsm, extract_pattern,
                    remove_pattern, validate_pfsm)
from .wire import dump_pfsm, load_pfsm

__all__ = [
    "ActiveSet", "Automaton", "Engine", "EngineStats", "GenerationMismatchError",
    "Match", "PartitionPlan", "Pfsm", "RegexSyntaxError",
    "StateCeilingExceeded", "add_pattern", "build_pfsm", "compile_nfa",
    "compile_pattern", "data_plan", "dump_pfsm", "epsilon_closure",
    "extract_pattern", "find_matches", "load_pfsm", "nfa_to_dfa",
    "parse_regex", "read_pattern_file", "regex_plan", "remove_pattern",
    "run", "run_chained_partitioned", "run_lazy_partitioned",
    "run_partitioned", "run_regex_partitioned", "run_segment", "validate",
    "validate_pfsm",
]

__version__ = "0.1.0"
