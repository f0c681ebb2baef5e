#include "io/experiment_record.hpp"

#include "io/table_printer.hpp"

namespace sea {

void ExperimentLog::Add(std::string experiment, std::string dataset,
                        std::string metric, double measured,
                        std::optional<double> paper, std::string note) {
  ExperimentRecord rec;
  rec.experiment = std::move(experiment);
  rec.dataset = std::move(dataset);
  rec.metric = std::move(metric);
  rec.measured = measured;
  rec.paper = paper;
  rec.note = std::move(note);
  records_.push_back(std::move(rec));
}

void ExperimentLog::Print(std::ostream& os) const {
  TablePrinter t({"experiment", "dataset", "metric", "measured", "paper",
                  "measured/paper", "note"});
  for (const auto& r : records_) {
    std::string paper = "-", ratio = "-";
    if (r.paper.has_value()) {
      paper = TablePrinter::Num(*r.paper, 4);
      if (*r.paper != 0.0)
        ratio = TablePrinter::Num(r.measured / *r.paper, 4);
    }
    t.AddRow({r.experiment, r.dataset, r.metric,
              TablePrinter::Num(r.measured, 4), paper, ratio, r.note});
  }
  t.Print(os);
}

}  // namespace sea
