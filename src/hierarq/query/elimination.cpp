#include "hierarq/query/elimination.h"

#include <algorithm>
#include <map>

#include "hierarq/query/hierarchical.h"
#include "hierarq/util/logging.h"

namespace hierarq {

namespace {

/// Live atom during planning.
struct LiveAtom {
  size_t id;
  VarSet vars;
};

}  // namespace

Result<EliminationPlan> EliminationPlan::Build(const ConjunctiveQuery& query) {
  if (query.atoms().empty()) {
    return Status::InvalidArgument("cannot build a plan for an empty query");
  }

  EliminationPlan plan;
  plan.num_base_atoms_ = query.num_atoms();

  std::vector<LiveAtom> live;
  for (size_t i = 0; i < query.num_atoms(); ++i) {
    plan.vars_.push_back(query.atoms()[i].vars());
    plan.names_.push_back(query.atoms()[i].relation());
    live.push_back(LiveAtom{i, query.atoms()[i].vars()});
  }

  auto mint = [&plan](const VarSet& vars, const std::string& name) {
    plan.vars_.push_back(vars);
    plan.names_.push_back(name + "'");
    return plan.vars_.size() - 1;
  };

  while (!(live.size() == 1 && live.front().vars.empty())) {
    // Rule 1: find the smallest variable that occurs in exactly one live
    // atom. (Scanning in id order makes plans deterministic.)
    bool applied = false;
    std::map<VarId, std::vector<size_t>> occurrences;  // var -> live indices
    for (size_t i = 0; i < live.size(); ++i) {
      for (VarId v : live[i].vars) {
        occurrences[v].push_back(i);
      }
    }
    for (const auto& [var, owners] : occurrences) {
      if (owners.size() == 1) {
        const size_t idx = owners.front();
        EliminationStep step;
        step.rule = EliminationRule::kProjectVariable;
        step.source_atom = live[idx].id;
        step.variable = var;
        step.drop_pos = live[idx].vars.size();
        for (size_t pos = 0; pos < live[idx].vars.size(); ++pos) {
          if (live[idx].vars[pos] == var) {
            step.drop_pos = pos;
            break;
          }
        }
        HIERARQ_CHECK_LT(step.drop_pos, live[idx].vars.size());
        VarSet result_vars = live[idx].vars;
        result_vars.Erase(var);
        step.result_atom = mint(result_vars, plan.names_[live[idx].id]);
        plan.steps_.push_back(step);
        live[idx] = LiveAtom{step.result_atom, result_vars};
        applied = true;
        break;
      }
    }
    if (applied) {
      continue;
    }

    // Rule 2: find the first pair of live atoms with identical variable
    // sets (pairs scanned in id order).
    for (size_t i = 0; i < live.size() && !applied; ++i) {
      for (size_t j = i + 1; j < live.size() && !applied; ++j) {
        if (live[i].vars == live[j].vars) {
          EliminationStep step;
          step.rule = EliminationRule::kMergeAtoms;
          step.left_atom = live[i].id;
          step.right_atom = live[j].id;
          step.result_atom = mint(live[i].vars, plan.names_[live[i].id]);
          plan.steps_.push_back(step);
          live[i] = LiveAtom{step.result_atom, plan.vars_[step.result_atom]};
          live.erase(live.begin() + static_cast<ptrdiff_t>(j));
          applied = true;
        }
      }
    }
    if (applied) {
      continue;
    }

    // Stuck: Proposition 5.1 says the query is not hierarchical. Surface
    // the concrete pairwise violation as the error message.
    std::string detail = "elimination procedure is stuck";
    if (auto violation = FindHierarchyViolation(query)) {
      detail += ": " + violation->ToString(query);
    }
    return Status::NotHierarchical(detail);
  }

  plan.final_atom_ = live.front().id;

  // Fusion links: a Rule 2 result consumed by the following Rule 1 step.
  for (size_t i = 0; i + 1 < plan.steps_.size(); ++i) {
    EliminationStep& merge = plan.steps_[i];
    EliminationStep& project = plan.steps_[i + 1];
    if (merge.rule == EliminationRule::kMergeAtoms &&
        project.rule == EliminationRule::kProjectVariable &&
        project.source_atom == merge.result_atom) {
      merge.fused_with = i + 1;
      project.fused_with = i;
    }
  }
  return plan;
}

const VarSet& EliminationPlan::vars_of(size_t atom_id) const {
  HIERARQ_CHECK_LT(atom_id, vars_.size());
  return vars_[atom_id];
}

const std::string& EliminationPlan::name_of(size_t atom_id) const {
  HIERARQ_CHECK_LT(atom_id, names_.size());
  return names_[atom_id];
}

std::string EliminationPlan::ToString(const VariableTable& variables) const {
  auto atom_str = [&](size_t id) {
    std::string s = name_of(id) + "(";
    const VarSet& vs = vars_of(id);
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) {
        s += ",";
      }
      s += variables.Name(vs[i]);
    }
    return s + ")";
  };
  std::string out;
  for (const EliminationStep& step : steps_) {
    if (step.rule == EliminationRule::kProjectVariable) {
      out += "Rule 1: project " + variables.Name(step.variable) + " out of " +
             atom_str(step.source_atom) + " -> " + atom_str(step.result_atom);
    } else {
      out += "Rule 2: merge " + atom_str(step.left_atom) + " and " +
             atom_str(step.right_atom) + " -> " + atom_str(step.result_atom);
    }
    out += "\n";
  }
  out += "Final atom: " + atom_str(final_atom_);
  return out;
}

}  // namespace hierarq
