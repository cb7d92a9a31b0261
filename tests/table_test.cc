// Tests for the table substrate: schema, categorical distributions,
// uncertain datasets, folds/splits and CSV round trips.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/random.h"
#include "core/builder.h"
#include "pdf/pdf_builder.h"
#include "table/csv.h"
#include "table/dataset.h"
#include "table/point_dataset.h"
#include "table/uncertainty_injector.h"
#include "tree/classify.h"

namespace udt {
namespace {

Schema TwoClassSchema(int attrs) {
  return Schema::Numerical(attrs, {"A", "B"});
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

UncertainTuple NumTuple(std::vector<double> means, int label) {
  UncertainTuple t;
  t.label = label;
  for (double m : means) {
    t.values.push_back(UncertainValue::Numerical(SampledPdf::PointMass(m)));
  }
  return t;
}

TEST(SchemaTest, NumericalFactory) {
  Schema schema = Schema::Numerical(3, {"x", "y"});
  EXPECT_EQ(schema.num_attributes(), 3);
  EXPECT_EQ(schema.num_classes(), 2);
  EXPECT_EQ(schema.attribute(0).name, "A1");
  EXPECT_EQ(schema.attribute(2).name, "A3");
  EXPECT_EQ(schema.ClassIndex("y"), 1);
  EXPECT_EQ(schema.ClassIndex("z"), -1);
  EXPECT_EQ(schema.AttributeIndex("A2"), 1);
  EXPECT_EQ(schema.AttributeIndex("nope"), -1);
}

TEST(SchemaTest, RejectsInvalid) {
  EXPECT_FALSE(Schema::Create({}, {"a"}).ok());
  EXPECT_FALSE(Schema::Create({{"x", AttributeKind::kNumerical, 0}}, {}).ok());
  EXPECT_FALSE(Schema::Create({{"x", AttributeKind::kNumerical, 0},
                               {"x", AttributeKind::kNumerical, 0}},
                              {"a"})
                   .ok());
  EXPECT_FALSE(
      Schema::Create({{"c", AttributeKind::kCategorical, 1}}, {"a"}).ok());
  EXPECT_FALSE(Schema::Create({{"x", AttributeKind::kNumerical, 0}},
                              {"a", "a"})
                   .ok());
  EXPECT_FALSE(
      Schema::Create({{"", AttributeKind::kNumerical, 0}}, {"a"}).ok());
}

TEST(CategoricalPdfTest, CreateNormalises) {
  auto pdf = CategoricalPdf::Create({1.0, 3.0});
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->num_categories(), 2);
  EXPECT_NEAR(pdf->probability(0), 0.25, 1e-12);
  EXPECT_NEAR(pdf->probability(1), 0.75, 1e-12);
  EXPECT_EQ(pdf->MostLikely(), 1);
}

TEST(CategoricalPdfTest, CertainConcentratesMass) {
  CategoricalPdf pdf = CategoricalPdf::Certain(2, 4);
  EXPECT_DOUBLE_EQ(pdf.probability(2), 1.0);
  EXPECT_DOUBLE_EQ(pdf.probability(0), 0.0);
  EXPECT_EQ(pdf.MostLikely(), 2);
}

TEST(CategoricalPdfTest, RejectsInvalid) {
  EXPECT_FALSE(CategoricalPdf::Create({1.0}).ok());
  EXPECT_FALSE(CategoricalPdf::Create({0.0, 0.0}).ok());
  EXPECT_FALSE(CategoricalPdf::Create({-1.0, 2.0}).ok());
}

TEST(DatasetTest, AddTupleValidatesArityAndLabel) {
  Dataset ds(TwoClassSchema(2));
  EXPECT_TRUE(ds.AddTuple(NumTuple({1.0, 2.0}, 0)).ok());
  EXPECT_FALSE(ds.AddTuple(NumTuple({1.0}, 0)).ok());
  EXPECT_FALSE(ds.AddTuple(NumTuple({1.0, 2.0}, 2)).ok());
  EXPECT_FALSE(ds.AddTuple(NumTuple({1.0, 2.0}, -1)).ok());
  EXPECT_EQ(ds.num_tuples(), 1);
}

TEST(DatasetTest, AddTupleValidatesKinds) {
  auto schema = Schema::Create({{"n", AttributeKind::kNumerical, 0},
                                {"c", AttributeKind::kCategorical, 3}},
                               {"A", "B"});
  ASSERT_TRUE(schema.ok());
  Dataset ds(*schema);

  UncertainTuple good;
  good.label = 0;
  good.values.push_back(UncertainValue::Numerical(SampledPdf::PointMass(1)));
  good.values.push_back(
      UncertainValue::Categorical(CategoricalPdf::Certain(1, 3)));
  EXPECT_TRUE(ds.AddTuple(good).ok());

  UncertainTuple swapped;
  swapped.label = 0;
  swapped.values.push_back(
      UncertainValue::Categorical(CategoricalPdf::Certain(1, 3)));
  swapped.values.push_back(
      UncertainValue::Numerical(SampledPdf::PointMass(1)));
  EXPECT_FALSE(ds.AddTuple(swapped).ok());

  UncertainTuple wrong_cardinality;
  wrong_cardinality.label = 0;
  wrong_cardinality.values.push_back(
      UncertainValue::Numerical(SampledPdf::PointMass(1)));
  wrong_cardinality.values.push_back(
      UncertainValue::Categorical(CategoricalPdf::Certain(1, 2)));
  EXPECT_FALSE(ds.AddTuple(wrong_cardinality).ok());
}

TEST(DatasetTest, AttributeRangeSpansSupports) {
  Dataset ds(TwoClassSchema(1));
  auto pdf = MakeUniformPdf(0.0, 10.0, 5);
  ASSERT_TRUE(pdf.ok());
  UncertainTuple t;
  t.label = 0;
  t.values.push_back(UncertainValue::Numerical(*pdf));
  ASSERT_TRUE(ds.AddTuple(t).ok());
  ASSERT_TRUE(ds.AddTuple(NumTuple({-3.0}, 1)).ok());
  auto [lo, hi] = ds.AttributeRange(0);
  EXPECT_DOUBLE_EQ(lo, -3.0);
  EXPECT_GT(hi, 8.0);
}

TEST(DatasetTest, ClassHistogram) {
  Dataset ds(TwoClassSchema(1));
  ASSERT_TRUE(ds.AddTuple(NumTuple({0.0}, 0)).ok());
  ASSERT_TRUE(ds.AddTuple(NumTuple({0.0}, 1)).ok());
  ASSERT_TRUE(ds.AddTuple(NumTuple({0.0}, 1)).ok());
  std::vector<int> hist = ds.ClassHistogram();
  EXPECT_EQ(hist[0], 1);
  EXPECT_EQ(hist[1], 2);
}

TEST(DatasetTest, ToMeansCollapsesPdfs) {
  Dataset ds(TwoClassSchema(1));
  auto pdf = SampledPdf::Create({0.0, 4.0}, {0.5, 0.5});
  ASSERT_TRUE(pdf.ok());
  UncertainTuple t;
  t.label = 0;
  t.values.push_back(UncertainValue::Numerical(*pdf));
  ASSERT_TRUE(ds.AddTuple(t).ok());
  Dataset means = ds.ToMeans();
  EXPECT_TRUE(means.tuple(0).values[0].pdf().is_point());
  EXPECT_DOUBLE_EQ(means.tuple(0).values[0].pdf().Mean(), 2.0);
}

TEST(DatasetTest, StratifiedFoldsBalanced) {
  Dataset ds(TwoClassSchema(1));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ds.AddTuple(NumTuple({double(i)}, i % 2)).ok());
  }
  Rng rng(1);
  std::vector<int> folds = ds.StratifiedFolds(5, &rng);
  std::vector<int> per_fold(5, 0);
  std::vector<int> per_fold_class0(5, 0);
  for (size_t i = 0; i < folds.size(); ++i) {
    ASSERT_GE(folds[i], 0);
    ASSERT_LT(folds[i], 5);
    ++per_fold[static_cast<size_t>(folds[i])];
    if (ds.tuple(static_cast<int>(i)).label == 0) {
      ++per_fold_class0[static_cast<size_t>(folds[i])];
    }
  }
  for (int f = 0; f < 5; ++f) {
    EXPECT_EQ(per_fold[static_cast<size_t>(f)], 10);
    EXPECT_EQ(per_fold_class0[static_cast<size_t>(f)], 5);
  }
}

TEST(DatasetTest, SplitByFoldPartitions) {
  Dataset ds(TwoClassSchema(1));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ds.AddTuple(NumTuple({double(i)}, i % 2)).ok());
  }
  Rng rng(2);
  std::vector<int> folds = ds.StratifiedFolds(4, &rng);
  auto [train, test] = ds.SplitByFold(folds, 0);
  EXPECT_EQ(train.num_tuples() + test.num_tuples(), 20);
  // Round-robin dealing: 10 members per class over 4 folds puts
  // ceil(10/4) = 3 of each class into fold 0.
  EXPECT_EQ(test.num_tuples(), 6);
}

TEST(DatasetTest, RandomSplitStratified) {
  Dataset ds(TwoClassSchema(1));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ds.AddTuple(NumTuple({double(i)}, i % 2)).ok());
  }
  Rng rng(3);
  auto [train, test] = ds.RandomSplit(0.3, &rng);
  EXPECT_EQ(test.num_tuples(), 30);
  EXPECT_EQ(train.num_tuples(), 70);
  std::vector<int> hist = test.ClassHistogram();
  EXPECT_EQ(hist[0], 15);
  EXPECT_EQ(hist[1], 15);
}

TEST(DatasetTest, CopiedOutTupleOutlivesItsDataset) {
  // Injected tuples share one sample block each; a tuple copied out of
  // the data set (as folds and retrain windows do) keeps its own block
  // alive after the data set is gone.
  PointDataset points(TwoClassSchema(3));
  Rng rng(77);
  for (int i = 0; i < 120; ++i) {
    const int label = i % 2;
    ASSERT_TRUE(points
                    .AddRow({rng.Gaussian(label * 2.0, 1.0),
                             rng.Uniform(0.0, 10.0),
                             rng.Gaussian(5.0 - label, 2.0)},
                            label)
                    .ok());
  }
  UncertaintyOptions options;
  options.samples_per_pdf = 20;
  auto injected = InjectUncertainty(points, options);
  ASSERT_TRUE(injected.ok());
  auto data = std::make_unique<Dataset>(std::move(injected).value());
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto tree = TreeBuilder(config).Build(*data, nullptr);
  ASSERT_TRUE(tree.ok());

  std::vector<UncertainTuple> kept;
  std::vector<std::vector<double>> want;
  for (int i = 0; i < data->num_tuples(); i += 7) {
    kept.push_back(data->tuple(i));
    want.push_back(ClassifyDistribution(*tree, data->tuple(i)));
  }
  data.reset();
  for (size_t k = 0; k < kept.size(); ++k) {
    const std::vector<double> got = ClassifyDistribution(*tree, kept[k]);
    ASSERT_EQ(got.size(), want[k].size());
    for (size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(Bits(got[c]), Bits(want[k][c])) << "tuple " << k;
    }
  }
}

TEST(PointDatasetTest, AddRowValidates) {
  PointDataset ds(TwoClassSchema(2));
  EXPECT_TRUE(ds.AddRow({1.0, 2.0}, 0).ok());
  EXPECT_FALSE(ds.AddRow({1.0}, 0).ok());
  EXPECT_FALSE(ds.AddRow({1.0, 2.0}, 5).ok());
  EXPECT_FALSE(ds.AddRow({1.0, std::nan("")}, 0).ok());
}

TEST(PointDatasetTest, RangeAndConversion) {
  PointDataset ds(TwoClassSchema(1));
  ASSERT_TRUE(ds.AddRow({5.0}, 0).ok());
  ASSERT_TRUE(ds.AddRow({-1.0}, 1).ok());
  auto [lo, hi] = ds.AttributeRange(0);
  EXPECT_DOUBLE_EQ(lo, -1.0);
  EXPECT_DOUBLE_EQ(hi, 5.0);

  Dataset uds = ds.ToPointMassDataset();
  EXPECT_EQ(uds.num_tuples(), 2);
  EXPECT_TRUE(uds.tuple(0).values[0].pdf().is_point());
  EXPECT_DOUBLE_EQ(uds.tuple(1).values[0].pdf().Mean(), -1.0);
}

TEST(CsvTest, RoundTrip) {
  PointDataset ds(TwoClassSchema(2));
  ASSERT_TRUE(ds.AddRow({1.5, -2.25}, 0).ok());
  ASSERT_TRUE(ds.AddRow({0.125, 3.0}, 1).ok());
  std::string text = WriteCsvToString(ds);
  auto parsed = ReadCsvFromString(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), 2);
  EXPECT_EQ(parsed->num_attributes(), 2);
  EXPECT_DOUBLE_EQ(parsed->value(0, 1), -2.25);
  EXPECT_EQ(parsed->label(1), 1);
  EXPECT_EQ(parsed->schema().class_name(0), "A");
}

TEST(CsvTest, RoundTripsRandomDoublesExactly) {
  // %.17g names every finite double uniquely, so write -> read must give
  // back the same bits: the parser's fast path may not round differently.
  uint64_t state = 77;
  auto next = [&state] {
    const uint64_t out = SplitMix64(state);
    state += 0x9E3779B97F4A7C15ULL;
    return out;
  };
  auto bits_of = [](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  };
  PointDataset ds(TwoClassSchema(3));
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row;
    while (row.size() < 3) {
      const uint64_t bits = next();
      double v = 0.0;
      std::memcpy(&v, &bits, sizeof(v));
      if (!std::isfinite(v)) continue;
      // Mix raw bit patterns (any magnitude, denormals) with ordinary
      // magnitudes.
      row.push_back(row.size() == 2 ? std::ldexp(v, -std::ilogb(v)) : v);
    }
    ASSERT_TRUE(ds.AddRow(row, i % 2).ok());
  }
  auto parsed = ReadCsvFromString(WriteCsvToString(ds));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_tuples(), ds.num_tuples());
  for (int i = 0; i < ds.num_tuples(); ++i) {
    EXPECT_EQ(parsed->label(i), ds.label(i));
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(bits_of(parsed->value(i, j)), bits_of(ds.value(i, j)))
          << "row " << i << " column " << j;
    }
  }
}

TEST(CsvTest, ParsesHeaderAndClasses) {
  auto ds = ReadCsvFromString(
      "height,weight,class\n"
      "1.0,2.0,cat\n"
      "3.0,4.0,dog\n"
      "5.0,6.0,cat\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->schema().attribute(0).name, "height");
  EXPECT_EQ(ds->num_classes(), 2);
  EXPECT_EQ(ds->label(2), 0);  // "cat" first seen -> id 0
}

TEST(CsvTest, RejectsMalformed) {
  EXPECT_FALSE(ReadCsvFromString("").ok());
  EXPECT_FALSE(ReadCsvFromString("a,class\n").ok());
  EXPECT_FALSE(ReadCsvFromString("a,class\n1.0\n").ok());          // ragged
  EXPECT_FALSE(ReadCsvFromString("a,class\nxyz,c\n").ok());  // not a number
  EXPECT_FALSE(ReadCsvFromString("class\nc\n").ok());              // no attrs
}

TEST(CsvTest, QuotedFieldsMayContainCommas) {
  // Pre-fix these rows silently mis-split: "de Boer, Jan" became two
  // fields and surfaced as a bogus field-count error.
  auto ds = ReadCsvFromString(
      "height,\"group, cohort\",class\n"
      "1.0,2.0,\"de Boer, Jan\"\n"
      "3.0,4.0,plain\n"
      "5.0,6.0,\"de Boer, Jan\"\n");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->schema().attribute(1).name, "group, cohort");
  EXPECT_EQ(ds->num_classes(), 2);
  EXPECT_EQ(ds->schema().class_name(0), "de Boer, Jan");
  EXPECT_EQ(ds->label(2), 0);
}

TEST(CsvTest, EscapedQuotesUnescape) {
  auto ds = ReadCsvFromString(
      "a,class\n"
      "1.0,\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->schema().class_name(0), "say \"hi\"");
}

TEST(CsvTest, QuotingErrorsArePrecise) {
  // Unterminated quote (also what an embedded line break degrades to,
  // since the reader is line-oriented): rejected with the row number, not
  // mis-split.
  auto unterminated = ReadCsvFromString(
      "a,class\n"
      "1.0,\"oops\n");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().message().find("row 1"), std::string::npos);
  EXPECT_NE(unterminated.status().message().find("unterminated"),
            std::string::npos);

  // Stray text after a closing quote.
  auto stray = ReadCsvFromString(
      "a,class\n"
      "1.0,\"x\"y\n");
  ASSERT_FALSE(stray.ok());
  EXPECT_NE(stray.status().message().find("closing quote"),
            std::string::npos);
}

TEST(CsvTest, CrlfAndTrailingBlankLines) {
  // CRLF endings and trailing blank lines both parse (the \r is stripped
  // with the line's surrounding whitespace, blank lines are skipped).
  auto ds = ReadCsvFromString(
      "a,b,class\r\n"
      "1.0,2.0,cat\r\n"
      "3.0,4.0,dog\r\n"
      "\r\n"
      "\n");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_tuples(), 2);
  EXPECT_EQ(ds->num_classes(), 2);
  EXPECT_DOUBLE_EQ(ds->value(1, 1), 4.0);
}

TEST(CsvTest, RoundTripsCommaBearingNames) {
  // The writer quotes what the reader unquotes: schema names and class
  // labels containing commas or quotes survive a full write/read cycle.
  auto schema = Schema::Create({{"x, raw", AttributeKind::kNumerical, 0}},
                               {"a \"b\"", "c,d"});
  ASSERT_TRUE(schema.ok());
  PointDataset ds(std::move(*schema));
  ASSERT_TRUE(ds.AddRow({1.0}, 0).ok());
  ASSERT_TRUE(ds.AddRow({2.0}, 1).ok());

  auto parsed = ReadCsvFromString(WriteCsvToString(ds));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema().attribute(0).name, "x, raw");
  EXPECT_EQ(parsed->schema().class_name(0), "a \"b\"");
  EXPECT_EQ(parsed->schema().class_name(1), "c,d");
  EXPECT_EQ(parsed->label(1), 1);
}

TEST(CsvTest, SplitCsvRecordEdgeCases) {
  auto plain = SplitCsvRecord("a,b,c");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, (std::vector<std::string>{"a", "b", "c"}));

  auto empty_fields = SplitCsvRecord("a,,c,");
  ASSERT_TRUE(empty_fields.ok());
  EXPECT_EQ(*empty_fields, (std::vector<std::string>{"a", "", "c", ""}));

  auto quoted_empty = SplitCsvRecord("\"\",x");
  ASSERT_TRUE(quoted_empty.ok());
  EXPECT_EQ(*quoted_empty, (std::vector<std::string>{"", "x"}));

  // Blanks around the quotes are decoration (space after the comma in
  // hand-edited files); blanks inside are content.
  auto padded = SplitCsvRecord("1.0, \"x, y\" ,z");
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, (std::vector<std::string>{"1.0", "x, y", "z"}));
  auto inner = SplitCsvRecord("\" a \",b");
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(*inner, (std::vector<std::string>{" a ", "b"}));

  EXPECT_FALSE(SplitCsvRecord("\"open").ok());
  EXPECT_FALSE(SplitCsvRecord("\"a\"b").ok());
  EXPECT_FALSE(SplitCsvRecord(" \"open").ok());
  EXPECT_FALSE(SplitCsvRecord("\"a\" b").ok());
}

TEST(CsvTest, FileRoundTrip) {
  PointDataset ds(TwoClassSchema(1));
  ASSERT_TRUE(ds.AddRow({7.0}, 1).ok());
  ASSERT_TRUE(ds.AddRow({8.0}, 0).ok());
  std::string path = ::testing::TempDir() + "/udt_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(ds, path).ok());
  auto parsed = ReadCsvFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), 2);
  EXPECT_FALSE(ReadCsvFile("/nonexistent/definitely/not.csv").ok());
}

}  // namespace
}  // namespace udt
